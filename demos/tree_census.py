"""Count and enumerate the planar trees behind generic disk portraits.

A Morse portrait of a degree-d field collapses to a planar tree with
d vertices, or dually a noncrossing chord diagram on 2(d - 1) boundary
slots.  The closed-form count is checked against the enumerated canonical
codes up to d = 16, and a few small degrees are spelled out as binary
chord codes.
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
        enumerated = len(portraits.enumerate_codes(d))
        dt = time.time() - t0
        mark = "ok" if enumerated == count else "MISMATCH"
        rows.append((d, count, enumerated))
        print(f"  d={d:2d}: formula {count:6d}   enumerated {enumerated:6d}"
              f"   {mark} ({dt:.2f}s)")

    print("\ncanonical chord codes for d = 5:")
    for code in portraits.enumerate_codes(5):
        print(f"  {code}")

    out = pathlib.Path(__file__).with_suffix(".csv")
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "count", "enumerated"])
        w.writerows(rows)
    print(f"\nwrote {len(rows)} rows to {out.name}")


if __name__ == "__main__":
    main()
