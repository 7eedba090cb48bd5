"""The additive domination region of a ternary symmetric channel, and delta-star.

Classifies a barycentric grid of noise pmfs into the nested strata
DEGRADED < LOWER_HULL < LESS_NOISY < CIRCLE_ONLY < OUTSIDE, draws a coarse
text picture, and then brackets delta-star (the noisiest symmetric channel
dominating a given channel) by bisection.
"""

import io

from channel_order import (
    delta_star,
    domination_factor_estimate,
    necessary_screen,
    region_label_counts,
    region_sample,
    symmetric_channel,
    symmetric_noise_pmf,
)

delta, grid_n = 0.2, 24
buffer = io.StringIO()
labels = region_sample(3, delta, grid_n, out=buffer)  # one label per grid point
print(f"grid {grid_n}: {len(labels)} points, strata sizes:")
for label, count in region_label_counts(labels).items():
    print(f"  {label:<11} {count}")

glyph = {"DEGRADED": "#", "LOWER_HULL": "+", "LESS_NOISY": "o", "CIRCLE_ONLY": ".", "OUTSIDE": " "}
print("\ntext rendering (rows: first coordinate descending):")
index = 0
rows = []
for i in range(grid_n + 1):
    row = []
    for j in range(grid_n - i + 1):
        row.append(glyph[labels[index]])
        index += 1
    rows.append(" ".join(row))
for i in reversed(range(grid_n + 1)):
    print(" " * i + rows[i])

print("\nCSV head:")
print("\n".join(buffer.getvalue().splitlines()[:4]))

print("\ndelta-star of the symmetric channel at 0.2 (should bracket 0.2):")
result = delta_star(symmetric_channel(3, 0.2), tol=1e-4)
print(f"  [{result.lower:.6f}, {result.upper:.6f}] after {result.iterations} probes")

print("\ndomination factor of V = W_0.25 as delta sweeps (crosses 1 at delta*):")
v = symmetric_channel(3, 0.25)
for d in (0.15, 0.2, 0.25, 0.3):
    est = domination_factor_estimate(v, d, samples=400, seed=1)
    print(f"  delta={d:.2f}  factor >= {est:.4f}")

print("\nnecessary screens for w_0.2 against w_0.1 (domination is impossible):")
report = necessary_screen(symmetric_noise_pmf(3, 0.2), symmetric_noise_pmf(3, 0.1))
for cond in report.conditions:
    print(f"  {cond.name:<12} {cond.status}")
