"""The CLI writes each market's ``bets.csv``, ``markets.csv`` and
``plot_markets.csv`` rows from ``%`` templates; for every row the simulator
can hand them, the text is exactly what ``csv.writer`` writes for the same
row in its default dialect."""

import csv
import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uamm_lab import cli, sim
from uamm_lab.fixedpoint import format_micro

#: The floats whose text is least like the rest: both infinities, NaN, a
#: negative zero, a float whose repr has an exponent (``1e+21``) and the
#: smallest subnormal.
EDGE_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 1e21, 5e-324)

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
engines = st.sampled_from(sim.ENGINES)
market_ids = st.integers(0, 99_999).map("m{:05d}".format)
counts = st.integers(0, 10 ** 6)
reasons = st.sampled_from(("", "threshold", "unfillable"))


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@st.composite
def bet_rows(draw):
    """One ``MarketResult.bet_log`` tuple: a bet unfillable at its quote has
    ``None`` for its four quote cells."""
    reason = draw(reasons)
    cells = (None,) * 4 if draw(st.booleans()) else tuple(draw(floats) for _ in range(4))
    return (draw(engines), draw(market_ids), draw(counts), draw(st.integers(1, 40)),
            draw(floats), *cells, 0 if reason else 1, reason)


@settings(max_examples=200)
@given(st.lists(bet_rows(), max_size=12))
@example([("uamm", "m00000", 0, 1, w, w, w, w, w, 1, "") for w in EDGE_FLOATS])
@example([("cpmm", "m99999", 3, 2, 1.9073465724950998e+21, None, None, None, None, 0,
           "unfillable"), ("uamm", "m00001", 4, 1, 0.01, 0.02, 0.5, 0.0, 0.00025, 0,
                           "threshold")])
def test_bets_rows_read_as_csv_writes_them(rows):
    assert cli._bets_text(rows) == csv_text(rows)


vectors = st.lists(floats, min_size=2, max_size=6).map(tuple)
micro = st.integers(-(10 ** 30), 10 ** 30)


@st.composite
def market_results(draw):
    return sim.MarketResult(
        market_id=draw(market_ids), engine=draw(engines), k=draw(st.integers(2, 6)),
        fair=draw(vectors), r_start=draw(vectors), r_end=draw(vectors),
        winner=draw(st.integers(1, 6)), n_attempts=draw(counts), n_accepted=draw(counts),
        n_rejected=draw(counts), n_unfillable=draw(counts), volume_micro=draw(micro),
        fee_micro=draw(micro), fee_places=draw(st.integers(-3, 30)),
        overround_final=draw(floats))


pnls = st.tuples(floats, floats, floats, floats)


@settings(max_examples=200)
@given(market_results(), pnls, counts)
@example(sim.MarketResult("m00000", "uamm", 3, EDGE_FLOATS[:3], EDGE_FLOATS[3:],
                          EDGE_FLOATS, 2, 0, 0, 0, 0, 0, -1_500_000, 9, math.nan),
         EDGE_FLOATS[2:], 0)
def test_market_and_plot_rows_read_as_csv_writes_them(r, pnl, index):
    row = (r.engine, r.market_id, r.k, ";".join(map(repr, r.fair)), r.winner,
           r.n_attempts, r.n_accepted, r.n_rejected, r.n_unfillable,
           format_micro(r.volume_micro), format_micro(r.fee_micro, r.fee_places), *pnl,
           r.overround_final,
           ";".join(map(repr, r.r_start)), ";".join(map(repr, r.r_end)))
    assert len(row) == len(cli.MARKETS_FIELDS)
    reprs = tuple(map(repr, pnl))
    assert cli._market_text(r, reprs) == csv_text([row])
    eip, epp, _, ev_final = pnl
    assert cli.PLOT_MARKETS_ROW % (index, reprs[0], reprs[1], reprs[3]) == \
        csv_text([(index, eip, epp, ev_final)])
