"""One betting market, bet by bet.

Funds a 50/50 two-outcome market with $10,000, streams 1,000 seeded bettors
through it, and narrates what the pool does along the way: quoted odds,
slippage-driven rejections, balance drift, and the LP's final settlement.
"""

from uamm_lab import SimConfig, amount, build_market
from uamm_lab.metrics import market_pnl
from uamm_lab.sim import run_single_market


def main():
    cfg = SimConfig(k=2, probs=(0.5, 0.5), funding=10_000.0, n_bets=1000, seed=7)

    print("A fresh market quotes almost-fair odds:")
    market = build_market("uamm", "demo", 2, cfg.probs, cfg.funding, cfg.fee_rate)
    for wager in (10, 100, 1000):
        q = market.quote(1, amount(wager))
        print(f"  bet ${wager:>5} on outcome 1 -> decimal odds "
              f"{q.decimal_odds:.4f}, slippage {q.slippage:.4%}")
    print("Slippage grows with size; that is what bettors reject on.\n")

    result = run_single_market(cfg)
    print(f"Streaming {cfg.n_bets} bettors (seed {cfg.seed}):")
    print(f"  accepted  {result.n_accepted}")
    print(f"  rejected  {result.n_rejected} (threshold) "
          f"+ {result.n_unfillable} (unfillable)")
    print(f"  volume    ${result.volume}")
    print(f"  fees      ${result.fee}\n")

    print("Pool balance per outcome (collateral + conditional), sampled:")
    for step in (0, 249, 499, 749, 999):
        b = result.trajectory[step]["balances"]
        print(f"  after bet {step + 1:>4}: " +
              "  ".join(f"${x:,.0f}" for x in b))
    print("Balances hover near the $10,000 funding: the fair-price rule "
          "pushes flow back toward the target balance.\n")

    eip, epp, _, _ = market_pnl(result)
    print(f"Outcome {result.winner} won this market.")
    print(f"  impermanent LP PnL (probability-weighted): ${eip:,.2f}")
    print(f"  permanent LP PnL (winner's pool delta):    ${epp:,.2f}")
    print(f"  fee revenue on top:                        ${result.fee}")
    print("Permanent PnL is the winner's conditional-reserve delta; the buy "
          "pipeline keeps merging the scarcest leg to zero, so single markets "
          "often settle at exactly zero and the profit shows up across many "
          "markets (see the sweep demo).")


if __name__ == "__main__":
    main()
