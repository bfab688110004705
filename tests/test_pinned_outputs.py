"""Seeded outputs pinned to literal values.

Criterion 11 compares two runs of the same code, so it cannot notice a
rewrite of the quote or execution path that drifts by one float bit or one
fixed-point unit.  These literals were recorded from the engines before
their hot paths were optimized; any change to them is a change in behaviour
and must be made on purpose.
"""

import hashlib
import json
from decimal import Decimal

import pytest

from uamm_lab import CpmmMarket, MarketSpec, UammMarket
from uamm_lab.sim import SimConfig, run_multi_market, simulate_one


def _k3(engine):
    return SimConfig(k=3, probs=(0.2, 0.3, 0.5), n_bets=200, n_markets=3,
                     seed=11, engine=engine)


THIN = SimConfig(k=2, probs=(0.8, 0.2), funding=500.0, side_mode="uniform",
                 rej_mean=0.025, rej_std=0.0, n_bets=300, n_markets=2, seed=5)

K3_SUMMARY = {
    "uamm": {
        "engine": "uamm", "n_markets": 3, "total_bets": 600, "accepted": 454,
        "rejected": 146, "unfillable": 0,
        "rejection_rate": "0.24333333333333335", "volume": "21082.970000",
        "fee_revenue": "527.074250000", "ev_mean": "-2535.9371743333336",
        "eip_mean": "1029.3088547666666", "eip_std": "523.6991036445608",
        "epp_mean": "1193.298662", "epp_std": "792.5365469528721",
        "tp": "3579.8959859999995", "tv_pnl_mean": "137.15810509999937",
        "epp_plus_fee": "1720.3729119999998", "vigorish": "0.03437661620674589",
    },
    "cpmm": {
        "engine": "cpmm", "n_markets": 3, "total_bets": 600, "accepted": 471,
        "rejected": 129, "unfillable": 0, "rejection_rate": "0.215",
        "volume": "22164.920000", "fee_revenue": "554.123000000",
        "ev_mean": "-7101.4035816666665", "eip_mean": "-4335.9783234666675",
        "eip_std": "351.5708465178564", "epp_mean": "-4229.257064",
        "epp_std": "809.4303358523599", "tp": "-12687.771192",
        "tv_pnl_mean": "32.99450653333346",
        "epp_plus_fee": "-3675.1340640000003",
        "vigorish": "1.5074528144272865e-08",
    },
}

#: sha256 of every quote (odd, implied price, slippage, fee, reject reason)
#: and every executed bet (odd, fee, s_lp, post_r) of the k=3 runs above.
K3_DIGEST = {
    "uamm": "deb970486468af971f76662669acf10fbff9d887bdadaebceedd550503fac1a8",
    "cpmm": "07c90fef157c57c4bf1834194b8c45e96c0911d732c8abee2f1cbd1c441bb0b9",
}

THIN_SUMMARY = {
    "engine": "uamm", "n_markets": 2, "total_bets": 600, "accepted": 99,
    "rejected": 499, "unfillable": 2, "rejection_rate": "0.835",
    "volume": "2107.460000", "fee_revenue": "52.686500000", "ev_mean": "0.0",
    "eip_mean": "63.733756799999995", "eip_std": "55.177756",
    "epp_mean": "74.3196955", "epp_std": "74.3196955", "tp": "148.639391",
    "tv_pnl_mean": "-58.97674020000002", "epp_plus_fee": "127.00619549999999",
    "vigorish": "0.14568392459533375",
}

#: (odd, fee, s_lp, post_r) of every executed bet of market 0 at seed 3.
RECORDS = {
    "uamm": [
        ("905.605148", "7.101000000", "283.6894037100059413445876250", "(9378.434852, 905.605148, 0.0, 905.605148)"),
        ("2.280000", "0.028500000", "1.170893548429880962776862571", "(9379.574852, 905.605148, 0.0, 903.325148)"),
        ("81.040000", "1.013000000", "41.62281455393000413398111503", "(9420.094852, 905.605148, 0.0, 822.285148)"),
        ("24.820000", "0.310250000", "12.79934752494954009938907078", "(9432.504852, 905.605148, 0.0, 797.465148)"),
        ("43.740747", "0.356250000", "14.71363435664167206660885008", "(9403.014105, 949.345895, 0.0, 841.205895)"),
        ("37.880000", "0.473500000", "19.58405708869561809661234274", "(9421.954105, 949.345895, 0.0, 803.325895)"),
        ("4.340000", "0.054250000", "2.248035140487360866987737862", "(9424.124105, 949.345895, 0.0, 798.985895)"),
        ("56.896650", "0.464250000", "19.23907887873948863732656763", "(9385.797455, 1006.242545, 0.0, 855.882545)"),
        ("43.450000", "0.217250000", "9.019795272619600089146451371", "(9394.487455, 962.792545, 0.0, 855.882545)"),
        ("2418.331041", "33.073000000", "1358.882992521334457846459880", "(9154.958959, 2525.241041, 1562.448496, 0.0)"),
        ("107.233334", "0.804250000", "37.36048930951731489256010055", "(9187.128959, 2525.241041, 1455.215162, 0.0)"),
        ("53.566666", "0.401750000", "18.72209965714353184446123079", "(9203.198959, 2525.241041, 1401.648496, 0.0)"),
    ],
    "cpmm": [
        ("897.974484", "7.101000000", "0.000000", "(4284.04, 6000.0, 1768.692183, 0.0)"),
        ("2.421474", "0.028500000", "0.000000", "(4282.758526, 6002.421474, 1771.113657, 0.0)"),
        ("85.689541", "1.013000000", "0.000000", "(4237.588985, 6088.111015, 1856.803198, 0.0)"),
        ("26.097978", "0.310250000", "0.000000", "(4223.901007, 6114.208993, 1882.901176, 0.0)"),
        ("43.160730", "0.356250000", "0.000000", "(4238.151007, 6114.208993, 1839.740446, 0.0)"),
        ("39.821591", "0.473500000", "0.000000", "(4217.269416, 6154.030584, 1879.562037, 0.0)"),
        ("4.552373", "0.054250000", "0.000000", "(4214.887043, 6158.582957, 1884.11441, 0.0)"),
        ("44.762356", "0.217250000", "0.000000", "(4223.577043, 6113.820601, 1884.11441, 0.0)"),
        ("2468.743795", "33.073000000", "0.000000", "(3077.753248, 8582.564396, 4352.858205, 0.0)"),
        ("129.267177", "0.804250000", "0.000000", "(3109.923248, 8582.564396, 4223.591028, 0.0)"),
        ("63.783389", "0.401750000", "0.000000", "(3125.993248, 8582.564396, 4159.807639, 0.0)"),
    ],
}

#: (quoted odd, quoted slippage, reject reason) of every bet of the same market.
QUOTES = {
    "uamm": [
        ("905.6051482355413", "0.01364662684771234", ""),
        ("2.28", "0.0", ""),
        ("81.04", "0.0", ""),
        ("24.82", "0.0", ""),
        ("43.7407470759008", "0.02578318736241053", ""),
        ("37.88", "0.0", ""),
        ("4.34", "0.0", ""),
        ("56.896650252436594", "0.026381252984304493", ""),
        ("43.44999999999999", "2.7755575615628914e-17", ""),
        ("2418.3310406344262", "0.04703842351249998", ""),
        ("107.23333333333335", "0.0", ""),
        ("53.56666666666667", "0.0", ""),
    ],
    "cpmm": [
        ("897.974484552512", "0.016311882894474217", ""),
        ("2.421473949110477", "-0.029212362404817005", ""),
        ("85.68954106156392", "-0.027130154998866396", ""),
        ("26.09797836723661", "-0.024484240680515357", ""),
        ("43.16073014925769", "0.030161235704792233", ""),
        ("39.821590313390914", "-0.024378613436967733", ""),
        ("4.552373426065897", "-0.02332557176108324", ""),
        ("56.17395580756176", "0.03058024369186818", "threshold"),
        ("44.76235661857885", "-0.0058636618700015075", ""),
        ("2468.743794548377", "0.03586767607126695", ""),
        ("129.26717654299586", "-0.05113558708153679", ""),
        ("63.78338945075877", "-0.04805352712705624", ""),
    ],
}


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_k3_summary_row_is_pinned(engine):
    results, report = run_multi_market(_k3(engine), keep_log=True)
    assert report.csv_row() == K3_SUMMARY[engine]
    quotes = [[row[k] for k in ("odd", "implied_price", "slippage", "fee",
                                "reject_reason")]
              for r in results for row in r.bet_log]
    records = [[str(x.odd), str(x.fee), str(x.s_lp), repr(x.post_r)]
               for r in results for x in r.records]
    text = json.dumps([quotes, records])
    assert hashlib.sha256(text.encode()).hexdigest() == K3_DIGEST[engine]


def test_thin_k2_summary_row_is_pinned():
    _, report = run_multi_market(THIN)
    assert report.csv_row() == THIN_SUMMARY


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_per_bet_outputs_are_pinned(engine):
    cfg = SimConfig(k=3, probs=(0.2, 0.3, 0.5), n_bets=12, n_markets=1,
                    seed=3, engine=engine)
    result = simulate_one(cfg, 0, keep_log=True)
    records = [(str(r.odd), str(r.fee), str(r.s_lp), repr(r.post_r))
               for r in result.records]
    assert records == RECORDS[engine]
    quotes = [(row["odd"], row["slippage"], row["reject_reason"])
              for row in result.bet_log]
    assert quotes == QUOTES[engine]


#: ``snapshot()`` of each engine's market after the lifecycle in
#: :func:`test_lifecycle_snapshot_is_pinned`, recorded before the engines were
#: folded into one market class.
SNAPSHOTS = {
    "uamm": (
        "balance/bettor/collateral=531.638835000\n"
        "balance/bettor/outcome1=0.000000\n"
        "balance/bettor/outcome2=0.000000\n"
        "balance/bettor/outcome3=0.000000\n"
        "balance/lp/collateral=0.000000\n"
        "balance/lp/outcome1=0.000000\n"
        "balance/lp/outcome2=0.000000\n"
        "balance/lp/outcome3=0.000000\n"
        "engine=uamm\n"
        "locked=0.000000\n"
        "lp/lp=1000.000000\n"
        "market=pin\n"
        "phase=resolved\n"
        "pool/fee_accrued=4.321000000\n"
        "pool/r0=964.040165\n"
        "pool/r1=0.000000\n"
        "pool/r2=0.000000\n"
        "pool/r3=0.000000\n"
        "pool/tb=1000.000000\n"
        "pool/treasury_shares=176.6624974659584350971379423\n"
        "pool/ts=1176.662497465958435097137942\n"
        "winner=3\n"
    ),
    "cpmm": (
        "balance/bettor/collateral=553.746116000\n"
        "balance/bettor/outcome1=0.000000\n"
        "balance/bettor/outcome2=0.000000\n"
        "balance/bettor/outcome3=0.000000\n"
        "balance/lp/collateral=600.000000\n"
        "balance/lp/outcome1=0.000000\n"
        "balance/lp/outcome2=0.000000\n"
        "balance/lp/outcome3=0.000000\n"
        "engine=cpmm\n"
        "locked=0.000000\n"
        "lp/lp=1000.000000\n"
        "market=pin\n"
        "phase=resolved\n"
        "pool/fee_accrued=4.321000000\n"
        "pool/r0=341.932884\n"
        "pool/r1=0.000000\n"
        "pool/r2=0.000000\n"
        "pool/r3=0.000000\n"
        "winner=3\n"
    ),
}


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_lifecycle_snapshot_is_pinned(engine):
    """deposit -> add -> three buys -> close -> resolve -> redeem ->
    redeem_pool on each engine leaves exactly the recorded state."""
    cls = UammMarket if engine == "uamm" else CpmmMarket
    market = cls(MarketSpec("pin", 3, Decimal("0.025"), "oracle"), (0.2, 0.3, 0.5))
    market.deposit("lp", 1000)
    market.add_liquidity("lp", 1000)
    market.deposit("bettor", 500)
    for i, w in ((1, "40"), (3, "120.5"), (2, "12.34")):
        market.buy("bettor", i, Decimal(w))
    market.close_betting()
    market.resolve("oracle", 3)
    market.redeem("bettor")
    market.redeem("lp")
    market.redeem_pool()
    assert market.snapshot() == SNAPSHOTS[engine]
