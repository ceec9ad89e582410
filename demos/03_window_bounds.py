"""How the data-dependent error bound tracks the realized window errors.

For a stationary stream the statistical-error bound shrinks with window
size while realized errors do the same, keeping the bound valid; with
drift the realized error of large windows turns back up while the bound
keeps falling, and that divergence is what the stop test detects.
"""

from driftest import tv_distance
from driftest.driftgen import abrupt, iid, sample_stream, true_pmf
from driftest.windows import build_ladder, ladder_phis, ladder_xis

DELTA = 0.05

for scenario in (iid(k=8, t=4096, seed=3),
                 abrupt(k=8, change_point=512, t=4096, seed=3)):
    stream = sample_stream(scenario, trial=0)
    current = true_pmf(scenario, scenario.t)
    ladder = build_ladder(stream)
    xis = ladder_xis(ladder_phis(ladder), DELTA)
    print(f"== {scenario.kind}  (T={scenario.t}, delta={DELTA})")
    print(f"   {'j':>2} {'r':>5} {'support':>7} {'xi bound':>9} {'realized':>9}")
    for j, window in enumerate(ladder):
        realized = tv_distance(current, window)
        print(f"   {j:>2} {2**j:>5} {window.symbols.size:>7} "
              f"{xis[j]:>9.4f} {realized:>9.4f}")
    print()

print("note: the bound is intentionally not clamped at 1; tiny windows are")
print("vacuous on purpose, which is why the walk always starts permissive.")
