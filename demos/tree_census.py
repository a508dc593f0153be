"""Count and enumerate the planar trees behind generic disk portraits.

A Morse portrait of a degree-d field collapses to a planar tree with
d vertices, or dually a noncrossing chord diagram on 2(d - 1) boundary
slots.  The closed-form count is checked against enumeration up to
d = 14, and a few small degrees are spelled out as binary chord codes.
"""

import csv
import pathlib
import time

from eternal_kit import portraits


def main():
    print("portrait census (closed form vs enumeration):")
    rows = []
    for d in range(2, portraits.ENUMERATE_MAX_D + 1):
        t0 = time.time()
        count = portraits.count_portraits(d)
        diagrams = portraits.enumerate_diagrams(d)
        dt = time.time() - t0
        mark = "ok" if len(diagrams) == count else "MISMATCH"
        rows.append((d, count, len(diagrams)))
        print(f"  d={d:2d}: formula {count:6d}   enumerated {len(diagrams):6d}"
              f"   {mark} ({dt:.2f}s)")

    print("\nformula only:")
    for d in range(portraits.ENUMERATE_MAX_D + 1, 17):
        rows.append((d, portraits.count_portraits(d), ""))
        print(f"  d={d:2d}: {rows[-1][1]}")

    print("\ncanonical chord codes for d = 5:")
    for dg in portraits.enumerate_diagrams(5):
        print(f"  {dg.code()}")

    out = pathlib.Path(__file__).with_suffix(".csv")
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "count", "enumerated"])
        w.writerows(rows)
    print(f"\nwrote {len(rows)} rows to {out.name}")


if __name__ == "__main__":
    main()
