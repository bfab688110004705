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
from conftest import reference_quote, run_seeded_markets, six_places

from uamm_lab.baseline import CpmmMarket
from uamm_lab.ledger import MarketSpec
from uamm_lab.sim import BETS_FIELDS, SimConfig, run_market, run_multi_market, seeded_market
from uamm_lab.uamm import UammMarket, UnfillableQuote


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
#: The UAMM's was re-derived when shares became ints of 10**-18 units, from
#: the earlier records with each ``s_lp`` replayed in Fraction arithmetic
#: (``floor(wager * ts / (r0 + sum f_k * r_k))`` to 18 places).  Both were
#: re-derived when a record's fee came to read to 6 places, from the same
#: records with each fee's text, ``0.308500000`` say, written as the same
#: value to 6 places (``0.308500``); they were
#: ``b54551d99803e852ba8760c1860d862d95591d6ecaecadd3550a3c9d86dbc7a7`` and
#: ``07c90fef157c57c4bf1834194b8c45e96c0911d732c8abee2f1cbd1c441bb0b9``.
K3_DIGEST = {
    "uamm": "95dc6469f2667053d91250240f20720a665ffd700fd1173925057a24d3acfafe",
    "cpmm": "1ac8b32bb61dcf7ad12800c02dfcccf48ee18d1acd1fa631f9f373e50343c829",
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

#: (odd, fee, s_lp, post_r) of every executed bet of market 0 at seed 3; the
#: UAMM's ``s_lp`` re-derived in Fraction arithmetic, as for ``K3_DIGEST``.
#: Each fee was recorded at the fee rate's exponent less 6; a record now
#: reads it to 6 places (:func:`six_places`).
RECORDS = {
    "uamm": [
        ("905.605148", "7.101000000", "283.689403710005941344", "(9378.434852, 905.605148, 0.0, 905.605148)"),
        ("2.280000", "0.028500000", "1.170893548429880962", "(9379.574852, 905.605148, 0.0, 903.325148)"),
        ("81.040000", "1.013000000", "41.622814553930004133", "(9420.094852, 905.605148, 0.0, 822.285148)"),
        ("24.820000", "0.310250000", "12.799347524949540099", "(9432.504852, 905.605148, 0.0, 797.465148)"),
        ("43.740747", "0.356250000", "14.713634356641672066", "(9403.014105, 949.345895, 0.0, 841.205895)"),
        ("37.880000", "0.473500000", "19.584057088695618096", "(9421.954105, 949.345895, 0.0, 803.325895)"),
        ("4.340000", "0.054250000", "2.248035140487360866", "(9424.124105, 949.345895, 0.0, 798.985895)"),
        ("56.896650", "0.464250000", "19.239078878739488637", "(9385.797455, 1006.242545, 0.0, 855.882545)"),
        ("43.450000", "0.217250000", "9.019795272619600089", "(9394.487455, 962.792545, 0.0, 855.882545)"),
        ("2418.331041", "33.073000000", "1358.882992521334457845", "(9154.958959, 2525.241041, 1562.448496, 0.0)"),
        ("107.233334", "0.804250000", "37.360489309517314892", "(9187.128959, 2525.241041, 1455.215162, 0.0)"),
        ("53.566666", "0.401750000", "18.722099657143531844", "(9203.198959, 2525.241041, 1401.648496, 0.0)"),
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


def _log_cells(row, *columns):
    """The ``bets.csv`` text of ``columns`` of one bet-log row: a row is a
    tuple in ``BETS_FIELDS`` order, a float is written as its ``repr`` and
    ``None`` as an empty cell."""
    cells = []
    for column in columns:
        value = row[BETS_FIELDS.index(column)]
        cells.append("" if value is None else
                     repr(value) if isinstance(value, float) else value)
    return cells


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_k3_summary_row_is_pinned(engine):
    assert run_multi_market(_k3(engine))[1].csv_row() == K3_SUMMARY[engine]
    results, report, bets = run_seeded_markets(_k3(engine), keep_log=True)
    assert report.csv_row() == K3_SUMMARY[engine]
    quotes = [_log_cells(row, "odd", "implied_price", "slippage", "fee",
                         "reject_reason")
              for r in results for row in r.bet_log]
    records = [[str(x.odd), str(x.fee), str(x.s_lp), repr(x.post_r)]
               for market_bets in bets for x in market_bets]
    text = json.dumps([quotes, records])
    assert hashlib.sha256(text.encode()).hexdigest() == K3_DIGEST[engine]


def test_thin_k2_summary_row_is_pinned():
    _, report = run_multi_market(THIN)
    assert report.csv_row() == THIN_SUMMARY


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_per_bet_outputs_are_pinned(engine):
    cfg = SimConfig(k=3, probs=(0.2, 0.3, 0.5), n_bets=12, n_markets=1,
                    seed=3, engine=engine)
    market, draws, winner = seeded_market(cfg, 0)
    result = run_market(market, draws, winner, keep_log=True)
    records = [(str(r.odd), str(r.fee), str(r.s_lp), repr(r.post_r))
               for r in market.bets]
    assert records == [(odd, six_places(fee), s_lp, post)
                       for odd, fee, s_lp, post in RECORDS[engine]]
    quotes = [tuple(_log_cells(row, "odd", "slippage", "reject_reason"))
              for row in result.bet_log]
    assert quotes == QUOTES[engine]


#: ``snapshot()`` of each engine's market after the lifecycle in
#: :func:`test_lifecycle_snapshot_is_pinned`, recorded before the engines were
#: folded into one market class; the share and target-balance lines
#: (``lp/*``, ``pool/tb``, ``pool/ts``, ``pool/treasury_shares``) re-derived
#: in Fraction arithmetic when they became 18-place reads of int wads.  The
#: fee book and the fee payer's collateral were recorded at the fee rate's
#: exponent less 6, and now read to 6 places (:data:`SIX_PLACE_LINES`).
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
        "lp/lp=1000.000000000000000000\n"
        "market=pin\n"
        "phase=resolved\n"
        "pool/fee_accrued=4.321000000\n"
        "pool/r0=964.040165\n"
        "pool/r1=0.000000\n"
        "pool/r2=0.000000\n"
        "pool/r3=0.000000\n"
        "pool/tb=1000.000000000000000000\n"
        "pool/treasury_shares=176.662497465958435096\n"
        "pool/ts=1176.662497465958435096\n"
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
        "lp/lp=1000.000000000000000000\n"
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


#: The snapshot lines whose pinned text reads to 6 places now.
SIX_PLACE_LINES = ("balance/bettor/collateral", "pool/fee_accrued")


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_lifecycle_snapshot_is_pinned(engine):
    """deposit -> add -> three buys -> close -> resolve -> redeem ->
    redeem_pool on each engine leaves exactly the recorded state."""
    cls = UammMarket if engine == "uamm" else CpmmMarket
    market = cls(MarketSpec("pin", 3, Decimal("0.025")), (0.2, 0.3, 0.5))
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
    pinned = dict(line.split("=") for line in SNAPSHOTS[engine].splitlines())
    for key in SIX_PLACE_LINES:
        pinned[key] = six_places(pinned[key])
    assert market.snapshot() == "".join(f"{k}={v}\n" for k, v in pinned.items())


# -- the quote grid ---------------------------------------------------------------

GRID_PROBS = {2: (0.7, 0.3), 3: (0.2, 0.3, 0.5), 4: (0.1, 0.2, 0.3, 0.4),
              5: (0.05, 0.15, 0.2, 0.25, 0.35)}
#: Zero, the overround probe's 1e-4, a bet-sized and a pool-draining wager.
GRID_WAGERS = (0.0, 1e-4, 10.0, 100_000.0)
#: Buys that move a 1,000-funded pool off genesis, so that UAMM quotes hit
#: the deficit, straddle and surplus branches of ``swap_out``.
GRID_MOVES = ((1, "300"), (2, "120"), (1, "45"))


def _grid_market(engine, k):
    cls = UammMarket if engine == "uamm" else CpmmMarket
    market = cls(MarketSpec("grid", k, Decimal("0.025")), GRID_PROBS[k])
    market.deposit("lp", 1000)
    market.add_liquidity("lp", 1000)
    market.deposit("bettor", 1000)
    for i, w in GRID_MOVES:
        market.buy("bettor", i, Decimal(w))
    return market


def _grid_quotes(quote, k):
    """(outcome, wager, reprs of odd, implied price, slippage, fee) of every
    grid quote ``quote(i, w)`` of a K-outcome market, or (outcome, wager,
    "unfillable")."""
    rows = []
    for i in range(1, k + 1):
        for w in GRID_WAGERS:
            try:
                q = quote(i, w)
            except UnfillableQuote:
                rows.append((i, repr(w), "unfillable"))
            else:
                rows.append((i, repr(w), repr(q.odd), repr(q.implied_price),
                             repr(q.slippage), repr(q.fee)))
    return rows

#: Every grid quote, recorded from the engines before the quote stopped
#: carrying the post-trade pool.
QUOTE_GRID = {
    ('uamm', 2): [
        (1, '0.0', '0.0', '0.7', '0.0', '0.0'),
        (1, '0.0001', '0.0001420344719032073', '0.7040544359410674', '0.004054435941067469', '2.5e-06'),
        (1, '10.0', '14.185681750105346', '0.7049361585970825', '0.004936158597082518', '0.25'),
        (1, '100000.0', '100967.55944684483', '0.9904171255386816', '0.2904171255386816', '2500.0'),
        (2, '0.0', '0.0', '0.30000000000000004', '0.0', '0.0'),
        (2, '0.0001', '0.0003333333333333333', '0.30000000000000004', '0.0', '2.5e-06'),
        (2, '10.0', '33.33333333333333', '0.30000000000000004', '0.0', '0.25'),
        (2, '100000.0', 'unfillable'),
    ],
    ('uamm', 3): [
        (1, '0.0', '0.0', '0.2', '0.0', '0.0'),
        (1, '0.0001', '0.00020844971473034092', '0.4797320069704298', '0.27973200697042977', '2.5e-06'),
        (1, '10.0', '20.623704893073068', '0.484878931881862', '0.284878931881862', '0.25'),
        (1, '100000.0', '100518.20796380957', '0.9948446358693924', '0.7948446358693924', '2500.0'),
        (2, '0.0', '0.0', '0.3', '0.0', '0.0'),
        (2, '0.0001', '0.0003333333333333334', '0.3', '0.0', '2.5e-06'),
        (2, '10.0', '33.333333333333336', '0.3', '0.0', '0.25'),
        (2, '100000.0', 'unfillable'),
        (3, '0.0', '0.0', '0.5', '0.0', '0.0'),
        (3, '0.0001', '0.0002', '0.5', '0.0', '2.5e-06'),
        (3, '10.0', '20.0', '0.5', '0.0', '0.25'),
        (3, '100000.0', 'unfillable'),
    ],
    ('uamm', 4): [
        (1, '0.0', '0.0', '0.1', '0.0', '0.0'),
        (1, '0.0001', '0.00020221428550494237', '0.4945249033731392', '0.39452490337313917', '2.5e-06'),
        (1, '10.0', '19.920538458914507', '0.501994462681051', '0.401994462681051', '0.25'),
        (1, '100000.0', '100335.89619421688', '0.9966522829121225', '0.8966522829121225', '2500.0'),
        (2, '0.0', '0.0', '0.2', '0.0', '0.0'),
        (2, '0.0001', '0.00037143814440933055', '0.26922383041467723', '0.06922383041467722', '2.5e-06'),
        (2, '10.0', '36.27794498117623', '0.2756495718042674', '0.0756495718042674', '0.25'),
        (2, '100000.0', '100821.27669712136', '0.9918541331351262', '0.7918541331351261', '2500.0'),
        (3, '0.0', '0.0', '0.3', '0.0', '0.0'),
        (3, '0.0001', '0.0003333333333333334', '0.3', '0.0', '2.5e-06'),
        (3, '10.0', '33.333333333333336', '0.3', '0.0', '0.25'),
        (3, '100000.0', 'unfillable'),
        (4, '0.0', '0.0', '0.4', '0.0', '0.0'),
        (4, '0.0001', '0.00025', '0.4', '0.0', '2.5e-06'),
        (4, '10.0', '25.0', '0.4', '0.0', '0.25'),
        (4, '100000.0', 'unfillable'),
    ],
    ('uamm', 5): [
        (1, '0.0', '0.0', '0.05', '0.0', '0.0'),
        (1, '0.0001', '0.00019101584524273675', '0.5235167787935249', '0.4735167787935249', '2.5e-06'),
        (1, '10.0', '18.738210906770604', '0.5336688785153304', '0.4836688785153304', '0.25'),
        (1, '100000.0', '100218.34270681668', '0.9978213298991041', '0.9478213298991041', '2500.0'),
        (2, '0.0', '0.0', '0.15', '0.0', '0.0'),
        (2, '0.0001', '0.00039475169742454454', '0.2533237998783138', '0.10332379987831383', '2.5e-06'),
        (2, '10.0', '38.31786415564545', '0.2609748800032394', '0.11097488000323938', '0.25'),
        (2, '100000.0', '100719.45404055428', '0.9928568512666421', '0.8428568512666421', '2500.0'),
        (3, '0.0', '0.0', '0.2', '0.0', '0.0'),
        (3, '0.0001', '0.0005', '0.2', '0.0', '2.5e-06'),
        (3, '10.0', '50.0', '0.2', '0.0', '0.25'),
        (3, '100000.0', 'unfillable'),
        (4, '0.0', '0.0', '0.25', '0.0', '0.0'),
        (4, '0.0001', '0.0004', '0.25', '0.0', '2.5e-06'),
        (4, '10.0', '40.0', '0.25', '0.0', '0.25'),
        (4, '100000.0', 'unfillable'),
        (5, '0.0', '0.0', '0.35', '0.0', '0.0'),
        (5, '0.0001', '0.00028571428571428574', '0.35', '0.0', '2.5e-06'),
        (5, '10.0', '28.571428571428573', '0.35', '0.0', '0.25'),
        (5, '100000.0', '101459.82454216148', '0.9856117970955601', '0.6356117970955601', '2500.0'),
    ],
    ('cpmm', 2): [
        (1, '0.0', '0.0', '0.7', '0.0', '0.0'),
        (1, '0.0001', '0.00014302225596575226', '0.699191879786498', '-0.0008081202135019616', '2.5e-06'),
        (1, '10.0', '14.259548564686725', '0.7012844729716515', '0.0012844729716515735', '0.25'),
        (1, '100000.0', '100425.15285982714', '0.9957664703740051', '0.29576647037400516', '2500.0'),
        (2, '0.0', '0.0', '0.30000000000000004', '0.0', '0.0'),
        (2, '0.0001', '0.00033243775683567946', '0.3008081902364326', '0.0008081902364325821', '2.5e-06'),
        (2, '10.0', '32.71478745213244', '0.3056721678119346', '0.005672167811934581', '0.25'),
        (2, '100000.0', '100993.81178872542', '0.9901596764086454', '0.6901596764086454', '2500.0'),
    ],
    ('cpmm', 3): [
        (1, '0.0', '0.0', '0.2', '0.0', '0.0'),
        (1, '0.0001', '0.00021974598049846462', '0.455070894917683', '0.255070894917683', '2.5e-06'),
        (1, '10.0', '21.74120671594693', '0.45995607008626216', '0.25995607008626215', '0.25'),
        (1, '100000.0', '100454.95210795513', '0.9954710833223412', '0.7954710833223413', '2500.0'),
        (2, '0.0', '0.0', '0.3', '0.0', '0.0'),
        (2, '0.0001', '0.00032725933013134635', '0.30556806420114824', '0.005568064201148248', '2.5e-06'),
        (2, '10.0', '32.14958800284569', '0.3110459766736314', '0.011045976673631386', '0.25'),
        (2, '100000.0', '100677.55570776408', '0.9932700421359968', '0.6932700421359967', '2500.0'),
        (3, '0.0', '0.0', '0.5', '0.0', '0.0'),
        (3, '0.0001', '0.0004177786609285249', '0.23936119613612428', '-0.2606388038638757', '2.5e-06'),
        (3, '10.0', '40.91277613253078', '0.24442242608046214', '-0.25557757391953784', '0.25'),
        (3, '100000.0', '100864.97363277094', '0.9914244400051089', '0.4914244400051089', '2500.0'),
    ],
    ('cpmm', 4): [
        (1, '0.0', '0.0', '0.1', '0.0', '0.0'),
        (1, '0.0001', '0.00021424196983966794', '0.4667619518007462', '0.3667619518007462', '2.5e-06'),
        (1, '10.0', '21.003235102197067', '0.47611712916330395', '0.376117129163304', '0.25'),
        (1, '100000.0', '100207.79359410045', '0.9979263729232265', '0.8979263729232265', '2500.0'),
        (2, '0.0', '0.0', '0.2', '0.0', '0.0'),
        (2, '0.0001', '0.00036219165465590776', '0.27609691917115764', '0.07609691917115763', '2.5e-06'),
        (2, '10.0', '34.84154178879311', '0.28701370509431734', '0.08701370509431733', '0.25'),
        (2, '100000.0', '100351.29030304191', '0.9964993942580999', '0.7964993942580998', '2500.0'),
        (3, '0.0', '0.0', '0.3', '0.0', '0.0'),
        (3, '0.0001', '0.0008231072379454418', '0.12149085245515522', '-0.17850914754484476', '2.5e-06'),
        (3, '10.0', '77.9527603455515', '0.12828282097608448', '-0.1717171790239155', '0.25'),
        (3, '100000.0', '100798.33329185945', '0.9920798959091129', '0.692079895909113', '2500.0'),
        (4, '0.0', '0.0', '0.4', '0.0', '0.0'),
        (4, '0.0001', '0.0007371879129574154', '0.135650623460204', '-0.264349376539796', '2.5e-06'),
        (4, '10.0', '69.91639332844989', '0.14302797275343537', '-0.25697202724656465', '0.25'),
        (4, '100000.0', '100714.99995889346', '0.9929007599743307', '0.5929007599743307', '2500.0'),
    ],
    ('cpmm', 5): [
        (1, '0.0', '0.0', '0.05', '0.0', '0.0'),
        (1, '0.0001', '0.00019839390183685736', '0.5040477508337514', '0.45404775083375143', '2.5e-06'),
        (1, '10.0', '18.945646159039626', '0.5278257556408892', '0.4778257556408892', '0.25'),
        (1, '100000.0', '100073.22840197667', '0.9992682518277264', '0.9492682518277263', '2500.0'),
        (2, '0.0', '0.0', '0.15', '0.0', '0.0'),
        (2, '0.0001', '0.00030478282621638754', '0.3281024762497698', '0.1781024762497698', '2.5e-06'),
        (2, '10.0', '27.884588070315033', '0.35862104094145303', '0.20862104094145303', '0.25'),
        (2, '100000.0', '100112.49725797669', '0.9988762915614141', '0.8488762915614141', '2500.0'),
        (3, '0.0', '0.0', '0.2', '0.0', '0.0'),
        (3, '0.0001', '0.0019371099472460628', '0.05162329590128186', '-0.14837670409871814', '2.5e-06'),
        (3, '10.0', '165.0349296061662', '0.060593233346805206', '-0.1394067666531948', '0.25'),
        (3, '100000.0', '100714.99999997653', '0.9929007595693125', '0.7929007595693125', '2500.0'),
        (4, '0.0', '0.0', '0.25', '0.0', '0.0'),
        (4, '0.0001', '0.0018016477320339618', '0.05550474613986024', '-0.19449525386013977', '2.5e-06'),
        (4, '10.0', '153.65321032298255', '0.06508162100212402', '-0.184918378997876', '0.25'),
        (4, '100000.0', '100664.99999997654', '0.993393930363317', '0.743393930363317', '2500.0'),
        (5, '0.0', '0.0', '0.35', '0.0', '0.0'),
        (5, '0.0001', '0.0016468337724087178', '0.06072258273750145', '-0.2892774172624985', '2.5e-06'),
        (5, '10.0', '140.64553117472002', '0.07110073044252845', '-0.2788992695574715', '0.25'),
        (5, '100000.0', '100607.85714297656', '0.9939581543605216', '0.6439581543605216', '2500.0'),
    ],
}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_quote_grid_is_pinned(engine, k):
    """Every outcome and grid wager of a moved K-outcome pool quotes exactly
    the recorded figures (or is unfillable), no quote changes the market,
    and the leg-by-leg reference pipeline quotes the same; its UAMM legs
    cover the deficit, straddle and surplus branches of ``swap_out``."""
    market = _grid_market(engine, k)
    before = market.snapshot()
    assert _grid_quotes(market.quote, k) == QUOTE_GRID[engine, k]
    assert market.snapshot() == before
    branches = []

    def reference(i, w):
        return reference_quote(market.pool, market.fair, i, w, float(market.spec.fee_rate),
                               engine, branches)

    assert _grid_quotes(reference, k) == QUOTE_GRID[engine, k]
    if engine == "uamm":
        assert set(branches) == {"deficit", "straddle", "surplus"}


# -- every byte the CLI writes ----------------------------------------------------

#: ``simulate`` configs whose output files are pinned byte for byte: the
#: sampled full-market experiment, a thin skewed pool whose bets are accepted,
#: rejected on the threshold and unfillable at quote time, and one K=3 market
#: with its trajectory.
CLI_CONFIGS = {
    "full": ("k = 2,3\nprobs = uniform:0.2,0.8\nn_bets = lognormal:2.0,1.0\n"
             "funding = 10000.0\nfee_rate = 0.025\nn_markets = 40\nseed = 7\n"),
    "multi": ("k = 2\nprobs = 0.8,0.2\nfunding = 500.0\nside_mode = uniform\n"
              "rej_mean = 0.025\nrej_std = 0.0\nn_bets = 300\nn_markets = 2\n"
              "seed = 5\n"),
    "single": ("k = 3\nprobs = 0.2,0.3,0.5\nn_bets = 80\nseed = 21\n"),
}

#: sha256 of every file ``uamm-lab simulate`` writes for each case, recorded
#: before the bet log and the market rows became CSV-ready tuples.
CLI_OUTPUT_SHA256 = {
    ("full", "uamm"): {
        "bets.csv": "a378908789cc97537555872db1a4c144b01b59618c9287b0a5733e33af7853ab",
        "markets.csv": "bafc43db755e8106474c71b556ff31ea582aa343f545a31e6343e58e9847e0c8",
        "plot_markets.csv": "cd8aa93d39f7bad7bb9f093ac7bdaf19ea8659960eec3701219fac74f23489d6",
        "summary.csv": "5e4c169ef608afc8f0d518f3214dfb61cd60ec0f641273a94cb33210033fda82",
    },
    ("multi", "uamm"): {
        "bets.csv": "c8e52e1198baab7e2797f8c6f5518b0b906483d5045e12da7b7c6d099382cad2",
        "markets.csv": "28fc1fb189ee97bf8816bc890daf485748643d20418643d5369bfed17efe9b61",
        "plot_markets.csv": "daad2a90fc7af383d6f98c1658a8b23dd080d367eee8d4b2a6c1a3b2f1461f0d",
        "summary.csv": "20ef3d158dfc9d05e58a9cd685931b6084ad10ed77ade2440ab1c2a9a43f6330",
    },
    ("multi", "cpmm"): {
        "bets.csv": "6c734eed7b0236adf0d5eaff354376d5593176821754bd42812224c986f449cf",
        "markets.csv": "fad5eb380e9b91ae347fc0eeb57465d0057f8abb92f014b586e672d6c546a229",
        "plot_markets.csv": "a6d1c5b3550733e0684cfccdae168f51ecc4673f9867e629bdcdd1a1687b7239",
        "summary.csv": "0dc1b14c638d367784c68698418b1656a52a05a9a5283ce4f0ac634e2a0163f7",
    },
    ("single", "uamm"): {
        "bets.csv": "979f18b02701af035c888602176769d8b32bc5b64eed0d532b4fde28a413143a",
        "markets.csv": "fe934f4317e10726c12b77f41544ad4990c03132cc6568721d659d60fec97406",
        "plot_single_market.csv": "f3402a26bcb81229ddf8f822d5e8d4a588809e70dd5e0b3ce7199be6c9afd148",
        "summary.csv": "4f4981281fd756ef1b0be9923e09c95387cfde08a8b167bc3c323d97dbb3fd18",
    },
}


@pytest.mark.parametrize("mode,engine", [("full", "uamm"), ("multi", "uamm"),
                                         ("multi", "cpmm"), ("single", "uamm")])
def test_simulate_output_bytes_are_pinned(mode, engine, tmp_path, monkeypatch, capsys):
    from uamm_lab import cli

    monkeypatch.delenv("UAMM_LAB_SEED", raising=False)
    config = tmp_path / "run.cfg"
    config.write_text(CLI_CONFIGS[mode])
    out = tmp_path / "out"
    assert cli.main(["simulate", "--mode", mode, "--config", str(config),
                     "--engine", engine, "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == CLI_OUTPUT_SHA256[mode, engine]


#: ``simulate --mode sweep`` on a small config: every file it writes and its
#: stdout, recorded before the sweep CSV headers were taken from the rows.
SWEEP_CONFIG = "k = 2\nn_bets = 30\nn_markets = 3\nseed = 11\n"
SWEEP_OUTPUT_SHA256 = {
    "uamm": {
        "plot_prob_sweep.csv": "32707d7b237dbddc4586a11e4c4fa4392602fcfd740fb17466e59e1fd9fbdaeb",
        "plot_rejection_sweep.csv": "79909e483bf77bcac02b3ac4daa38d6164ea884d3e1f017bfdcb529c5033cc4a",
        "stdout": "e13f9c01dd3de728ab5d92b8380e7261558470b240e4577b83237789c13c28b5",
        "sweep_bands.csv": "4a8719a645fc4253979c84e3a1ea0587b8f4f63417ca7b121a256f94e53ff025",
    },
    "cpmm": {
        "plot_prob_sweep.csv": "8ba240f5dc7780380e2a2ffd7f633950fd953edb09c5de6553479a55daa0d173",
        "plot_rejection_sweep.csv": "8daa10525d7277f12ad02c6278a10b0fcb9edfe404662b1fbd20959cb6ee8f1e",
        "stdout": "f7c03a63388b682cb656b7ceff0b25d8c72f42db2f1e1ccd9d8980a674e62440",
        "sweep_bands.csv": "7616b66020814c419ae8681aa665a415c36b82fee43be3a4af282e6848503543",
    },
}


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_sweep_output_bytes_are_pinned(engine, tmp_path, monkeypatch, capsys):
    from uamm_lab import cli

    monkeypatch.delenv("UAMM_LAB_SEED", raising=False)
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--mode", "sweep", "--config", str(config),
                     "--engine", engine, "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == SWEEP_OUTPUT_SHA256[engine]
