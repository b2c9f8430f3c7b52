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

from .combination import checked_int, read

FORMAT_VERSION = 1

ENV_VAR = "AFFINE_SCHUR_CACHE"

_LABEL = [(int, int)]
_RECORD = {"n": int, "left": _LABEL, "right": _LABEL, "value": [(_LABEL, int)]}


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
            header = read(header, {"format": int}, "%s line 1: $" % self.path)
            if header["format"] != FORMAT_VERSION:
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
                where = "%s line %d: $" % (self.path, lineno)
                rec = read(rec, _RECORD, where)
                checked_int(rec["n"], where + ".n", 1)
                self.table[rec["n"], rec["left"], rec["right"]] = dict(rec["value"])

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
