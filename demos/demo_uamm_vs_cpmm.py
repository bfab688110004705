"""Fair-price engine versus constant product, on identical bettors.

Both engines consume the same seeded wager/side/threshold streams (draws
never depend on the engine), so any PnL difference is down to pricing.  The
constant-product pool prices purely from its reserves and gets pushed around
by flow; the fair-price pool anchors on the true probabilities.
"""

from dataclasses import replace

from uamm_lab import SimConfig
from uamm_lab.sim import run_multi_market


def main():
    print("100 markets x 100 bets per seed, identical bettor streams:\n")
    print(f"  {'seed':>4}  {'EPP uamm':>9}  {'EPP cpmm':>10}  "
          f"{'rej uamm':>8}  {'rej cpmm':>8}")
    wins = 0
    for seed in range(5):
        cfg = SimConfig(n_markets=100, n_bets=100, seed=seed)
        _, uamm = run_multi_market(cfg)
        _, cpmm = run_multi_market(replace(cfg, engine="cpmm"))
        wins += uamm.epp_mean > cpmm.epp_mean
        print(f"  {seed:>4}  {uamm.epp_mean:>8.1f}$  {cpmm.epp_mean:>9.1f}$"
              f"  {uamm.rejection_rate:>8.1%}  {cpmm.rejection_rate:>8.1%}")

    print(f"\nFair-price engine wins on permanent PnL in {wins}/5 seeds.")
    print("The constant-product LP loses roughly its stake in the winning "
          "outcome: bettors drain the winner's reserve at ever-shortening "
          "odds, and nothing anchors the price back to the true probability.")
    print("The fair-price LP starts with empty conditional pools, so every "
          "pool delta is inflow; its permanent PnL is structurally "
          "non-negative before fees.")


if __name__ == "__main__":
    main()
