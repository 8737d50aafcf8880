#!/usr/bin/env python3
"""Fits a workload's blend exponents from clock dumps (README, "Fitting the blend").

    for s in 1 2 3 4 5 6 7 8 9 10; do
      LEDGER_DEBUG=1 cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload cabin_long --seed $s --seconds 20 --trace 0 2> dump_$s.txt
    done
    python3 benchmark/fit_blend.py dump_*.txt

With LEDGER_DEBUG set the ledger prints one `slice` line per slice on stderr:
index, wall s, compute and memory kernel s before, the same after, labels,
readings, wall time of the slice's end. This script prints (1) the log-log
least-squares exponents of slice wall time on the two kernels' times, pooled
over all dumps, and (2) for a grid of exponents the run-to-run spread
(IQR / median, range / median) of the calibrated steady time. Pick the grid
point that is flat on two independent sets of dumps; do not chase the minimum
of one set.
"""
import bisect
import math
import statistics as st
import sys

SMOOTH_S = 0.5  # clock.rs SMOOTH_S


def load(path):
    rows = [[float(x) for x in l.split()[1:]] for l in open(path) if l.startswith("slice ")]
    ends = [r[8] for r in rows]
    out = []
    for i, r in enumerate(rows):
        mid = ends[i] - r[1] / 2
        lo = min(bisect.bisect_left(ends, mid - SMOOTH_S), i)
        hi = max(bisect.bisect_right(ends, mid + SMOOTH_S), i + 1)
        near = rows[lo:hi]
        compute = st.mean((n[2] + n[4]) / 2 for n in near)
        memory = st.mean((n[3] + n[5]) / 2 for n in near)
        out.append((r[1], compute, memory, i / len(rows)))
    return out


def solve(a, b):
    n = len(b)
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(a[r][i]))
        a[i], a[p], b[i], b[p] = a[p], a[i], b[p], b[i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
            b[r] -= f * b[i]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (b[i] - sum(a[i][j] * x[j] for j in range(i + 1, n))) / a[i][i]
    return x


def spread(values):
    q = st.quantiles(values, n=4)
    return (q[2] - q[0]) / q[1], (max(values) - min(values)) / q[1]


runs = [load(p) for p in sys.argv[1:]]
runs = [r for r in runs if r]
c_ref = st.median(s[1] for r in runs for s in r)
m_ref = st.median(s[2] for r in runs for s in r)

# ln wall = a ln compute + b ln memory + trend * position + const, snapshots excluded.
k = 4
ata = [[0.0] * k for _ in range(k)]
aty = [0.0] * k
for run in runs:
    typical = st.median(s[0] for s in run)
    for wall, compute, memory, position in run:
        if wall > 2.5 * typical:
            continue
        x = [math.log(compute / c_ref), math.log(memory / m_ref), position, 1.0]
        for i in range(k):
            aty[i] += x[i] * math.log(wall)
            for j in range(k):
                ata[i][j] += x[i] * x[j]
a, b, _, _ = solve(ata, aty)
print(f"{len(runs)} runs, median kernels {c_ref * 1e3:.2f} / {m_ref * 1e3:.2f} ms")
print(f"log-log fit: compute^{a:.2f} · memory^{b:.2f}")
print("raw wall      IQR %.3f range %.3f" % spread([sum(s[0] for s in r) for r in runs]))
for a, b in [(1, 0), (0.8, 0.2), (0.6, 0.3), (0.5, 0.5), (0.3, 0.7), (0, 1), (0, 1.1), (0.1, 1.3)]:
    totals = [sum(w / ((c / c_ref) ** a * (m / m_ref) ** b) for w, c, m, _ in r) for r in runs]
    print("(%.1f, %.1f)    IQR %.3f range %.3f" % ((a, b) + spread(totals)))
