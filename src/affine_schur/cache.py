"""Persistent structure-constant cache: newline-delimited JSON, append-only.

The first line is a header carrying the format version; records carry the
period, the two canonical labels, and the integer structure constants.  A
version mismatch makes the file invisible (it is rewritten on the next write).
Writes are serialized with a lock and flushed line-atomically; readers may
share the in-memory table freely.
"""

from __future__ import annotations

import json
import os
import threading

FORMAT_VERSION = 1

ENV_VAR = "AFFINE_SCHUR_CACHE"

_FIELDS = {"n", "left", "right", "value"}


class StructureConstantCache:
    def __init__(self, path):
        self.path = path
        self.table = {}
        self.lock = threading.Lock()
        self._header_ok = False
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first.strip():
                return
            try:
                header = json.loads(first)
            except json.JSONDecodeError:
                return
            if header.get("format") != FORMAT_VERSION:
                return
            self._header_ok = True
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail write; ignore
                if (
                    not isinstance(rec, dict)
                    or not _FIELDS <= rec.keys()
                    or not isinstance(rec["n"], int)
                    or rec["n"] < 1
                ):
                    raise ValueError(
                        "%s line %d: a cache record needs the fields n (at "
                        "least 1), left, right and value" % (self.path, lineno)
                    )
                try:
                    key = (
                        rec["n"],
                        _pairs_from_json(rec["left"]),
                        _pairs_from_json(rec["right"]),
                    )
                    value = {
                        _pairs_from_json(p): int(c) for p, c in rec["value"]
                    }
                except (TypeError, ValueError):
                    raise ValueError(
                        "%s line %d: left and right are lists of integer pairs, "
                        "value a list of [pairs, integer] entries" % (self.path, lineno)
                    ) from None
                self.table[key] = value

    def get(self, key):
        return self.table.get(key)

    def put(self, key, value):
        with self.lock:
            if key in self.table:
                return
            self.table[key] = value
            new_file = not self._header_ok
            mode = "w" if new_file else "a"
            n, left, right = key
            rec = {
                "n": n,
                "left": [list(p) for p in left],
                "right": [list(p) for p in right],
                "value": [[[list(q) for q in pairs], c] for pairs, c in value.items()],
            }
            with open(self.path, mode, encoding="utf-8") as fh:
                if new_file:
                    fh.write(json.dumps({"format": FORMAT_VERSION}) + "\n")
                    self._header_ok = True
                fh.write(json.dumps(rec) + "\n")

    def stats(self):
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        return {
            "path": self.path,
            "records": len(self.table),
            "bytes": size,
            "format": FORMAT_VERSION,
        }

    def clear(self):
        with self.lock:
            self.table.clear()
            self._header_ok = False
            if os.path.exists(self.path):
                os.remove(self.path)


def _pairs_from_json(pairs):
    return tuple((int(top), int(bottom)) for top, bottom in pairs)
