#!/usr/bin/env python3
"""Damages the newest chain of an on-disk checkpoint ring, for resume smokes.

    python3 tools/damage_checkpoint.py DIR MODE

DIR is one ring's directory (ckpt-0.mpcg, ckpt-1.mpcg; for mpcg_run
--algo matching, <checkpoint-dir>/inner). A slot file holds a chain: one
base followed by delta records (see src/fault/durable.h). The newest chain
is the one whose base has the highest seq. MODE is one of

  rot          flip a bit in the middle byte of the newest chain's file
  rot-record   flip a bit inside the newest chain's last record
  tear-record  drop the file's last 12 bytes, cutting the last record short
               the way a kill in the middle of an append does

It prints what it damaged, and exits 1 when a record mode finds the newest
chain without a record.
"""

import glob
import os
import struct
import sys


def words(data):
    return struct.unpack("<%dQ" % (len(data) // 8), data[: len(data) // 8 * 8])


def records(w):
    """(start, length) in words of each complete record after the base."""
    at = 5 + (w[4] + 7) // 8  # magic, version, seq, round; scope
    sections = w[at]
    at += 1
    payload = 0
    for _ in range(sections):
        at += 1 + (w[at] + 7) // 8  # name
        payload += w[at]
        at += 2  # word count, digest
    at += payload + 1  # payloads, trailer
    found = []
    while at + 5 <= len(w) and 5 < w[at + 3] <= len(w) - at:
        found.append((at, w[at + 3]))
        at += w[at + 3]
    return found


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    ring, mode = sys.argv[1], sys.argv[2]
    slots = glob.glob(os.path.join(ring, "ckpt-*.mpcg"))
    if not slots:
        sys.exit("no slot files under " + ring)

    def base_seq(path):
        with open(path, "rb") as f:
            return struct.unpack("<4Q", f.read(32))[2]

    newest = max(slots, key=base_seq)
    with open(newest, "rb") as f:
        data = bytearray(f.read())
    if mode == "rot":
        at = len(data) // 2
        data[at] ^= 0x10
    elif mode in ("rot-record", "tear-record"):
        found = records(words(data))
        if not found:
            sys.exit("newest chain %s has no record" % newest)
        start, length = found[-1]
        if mode == "rot-record":
            at = (start + length // 2) * 8 + 3
            data[at] ^= 0x10
        else:
            at = len(data) - 12
            del data[at:]
    else:
        sys.exit("unknown mode " + mode)
    with open(newest, "wb") as f:
        f.write(data)
    print("%s %s at byte %d" % (mode, newest, at))


if __name__ == "__main__":
    main()
