"""LP profit across true-probability and rejection-threshold grids.

Runs 100 markets x 100 bets per grid point and prints the permanent-PnL
curve for both bet-side models, then shows how profit responds to bettors'
odds-rejection thresholds.
"""

from uamm_lab import SimConfig
from uamm_lab.sim import run_prob_sweep, run_rejection_sweep


def main():
    cfg = SimConfig(n_markets=100, n_bets=100, seed=0)

    print("Permanent LP PnL (EPP) across the true probability of outcome 1")
    print("(100 markets x 100 bets per point, $10,000 funding):\n")
    sweep = run_prob_sweep(cfg)
    print(f"  {'p(1)':>5}  {'EPP true-prob':>14}  {'EPP uniform':>12}")
    tp_rows, un_rows = ([r for r in sweep.rows if r["side_mode"] == mode]
                        for mode in ("true-prob", "uniform"))
    for tp_row, un_row in zip(tp_rows, un_rows):
        print(f"  {tp_row['prob']:>5}  {tp_row['epp_mean']:>13.1f}$"
              f"  {un_row['epp_mean']:>11.1f}$")
    band = sweep.bands["true-prob"]
    print(f"\nUnder true-probability sides the curve is flat and positive: "
          f"spread {band['epp_spread_observed']:.4f} of funding, inside the "
          f"declared +-8 SE envelope ({band['epp_spread_band']:.4f}).")
    print("Uniform sides overweight underdogs, so edge probabilities profit "
          "more and the curve smiles.\n")

    print("Profit versus the bettors' fixed rejection threshold "
          "(threshold 1.0 accepts everything):\n")
    rows = run_rejection_sweep(cfg)
    print(f"  {'threshold':>9}  {'acceptance':>10}  {'EIP':>9}  {'volume':>12}")
    for r in rows:
        print(f"  {r['threshold']:>9}  {r['acceptance_rate']:>9.1%}"
              f"  {r['eip_mean']:>8.1f}$  ${float(r['volume']):>11,.0f}")
    print("\nThe more odds bettors accept, the more the LP makes.")


if __name__ == "__main__":
    main()
