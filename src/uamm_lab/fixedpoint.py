"""Fixed-point collateral and share arithmetic: ints inside, Decimal outside.

Token balances follow the 6-fractional-digit stablecoin convention.  The
ledger and the pools store every token balance, pool reserve and locked
amount as a Python ``int`` count of micro-units (value x 10**6), as on-chain
token contracts keep integer base units.  So a bet moves tokens with int
``+`` and ``-``, and conservation is checked with exact ``==``, never with a
tolerance.  Public reads (balances, ``locked``, reserves, snapshots, bet
records) are 6-place Decimals built from those ints.

LP shares and the target balance are ints too, of 10**-18 units: "wads", the
18-decimal base unit of ERC-20 and Uniswap v2 LP tokens.  They are minted
with floor division (see :class:`uamm_lab.uamm.PoolState`) and read as
18-place Decimals.

The units, as int constants: :data:`UNIT` micro-units per unit of
collateral, :data:`WAD` wads per share (and per unit of target balance),
and :data:`WADS_PER_MICRO` wads per micro-unit, the factor a genesis
deposit of ``n`` micro-units mints its shares by.

A bet record and the pool's fee book are ints too: the record keeps its
wager, fee and odd in micro-units and its treasury shares in wads, and the
book its fees in micro-units, each read as a Decimal only when a caller asks.
A fee is ``wager * fee_rate`` rounded half-even to the grid, so it, and the
book, read to 6 places like every other amount.  Only a run's fee total
(:func:`uamm_lab.sim.run_market`) reads otherwise: when it equals
``fee_rate * volume`` exactly, it reads as that product (``0.308500000`` at
a 0.025 rate), as Decimal arithmetic on exact fees would leave it.

Balances, ``locked``, reserves, snapshot lines, share reads, the fee book and
a bet record's wager, fee and odd are read exactly, whatever the caller's
Decimal context: each is the product of an int and a power of ten, taken in
a context that never rounds (:func:`mul_exact`, :func:`scaleb_exact`).  A
Decimal operator would round it to the caller's precision instead (a balance
of ``1234567.891234`` reads ``1234567.89123`` under
``localcontext(prec=12)``).

The converters:

* :func:`to_micro` rounds any collateral amount (float, Decimal, int, str)
  half-even to int micro-units.  Its one error contract: a value it cannot
  round raises ``ValueError``, whether ``Decimal`` cannot read it (a bool, a
  non-numeric string, ``None``, a ``Fraction``) or it is NaN, an infinity or
  of a magnitude of 1e22 or more, which cannot carry six decimals in the
  28-digit Decimal context.
* :func:`amount` is the same rounding as a 6-place Decimal,
  ``PRECISION * to_micro(value)`` taken exactly; a value that rounds to zero
  gives :data:`ZERO`, never ``-0.000000``.
* :func:`exact_micro` is the exact micro-unit count of a collateral amount,
  with no rounding: an int on the grid, an exact Fraction off it (a pool
  handed off-grid collateral keeps such a count); :func:`from_micro` reads
  a count back as collateral, an exact 6-place Decimal for an int.
* :func:`to_wad` floors any share amount (int, float, Decimal, Fraction) to
  int wads, exactly; :func:`from_wad` reads ``n`` wads as an 18-place
  Decimal.
* ``n / UNIT`` is the float of ``n`` micro-units.  CPython's int true
  division is correctly rounded, so it equals ``float(PRECISION * n)`` bit
  for bit, at a fraction of the cost.
* :func:`format_micro` is the text of ``n`` micro-units, equal to
  ``str(PRECISION * n)``.

Rounding a float is the hot case (every swap leg's output is a float), and
expanding the whole binary float into a Decimal just to round it is slow.
:func:`to_micro` therefore has two paths.  It rounds a positive float ``x``
as ``round(x * 1e6)`` when that provably gives the same result as
``Decimal(x).quantize(PRECISION, ROUND_HALF_EVEN)``:

* ``1e6`` is exact in binary, so ``y = x * 1e6`` is the exact product
  ``x * 10**6`` correctly rounded, off by at most ``y * 2**-53`` (or far less
  than that when ``y`` is subnormal).
* The exact product and ``y`` round to the same integer unless a half-integer
  lies between them.  The half-integer nearest ``y`` is ``0.5 - |y - n|``
  away, where ``n = round(y)``; when that exceeds ``y * 2**-52`` no
  half-integer can lie between them, and no exact tie can occur either.
* For ``y < 2**50`` the subtractions above are exact or, when rounded, leave
  a gap of at least a quarter, far above ``y * 2**-52 < 0.25``.

Everything else (zero and ``-0.0``, negatives, floats near a tie or of
``2**50 / 1e6`` (about 1.1e9) and more, and every Decimal, int and string)
takes the exact path, ``Decimal.quantize`` in the 28-digit context.

The float fast path is :func:`to_micro`'s float branch and three inline
copies of it: the wager rounding of :meth:`uamm_lab.market.Market.buy` and
each engine's buy leg loop (``_legs`` in :mod:`uamm_lab.uamm` and
:mod:`uamm_lab.baseline`), so that a float wager or a leg pays no call.
Each copy falls back to :func:`to_micro` itself where the test fails.  Its
two bounds are public for them: :data:`FAST_LIMIT` (``2**50``) and
:data:`PRODUCT_ERROR` (``2**-52``).
"""

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN
from decimal import Context, Decimal, InvalidOperation
from fractions import Fraction

PRECISION = Decimal("0.000001")
ZERO = Decimal("0.000000")
#: Micro-units per unit of collateral.
UNIT = 1_000_000
#: Wads (10**-18 units) per share, and per unit of target balance.
WAD = 10 ** 18
#: Wads per micro-unit: the shares, in wads, that a deposit of ``n``
#: micro-units mints 1:1 at genesis.
WADS_PER_MICRO = 10 ** 12
#: One wad, the exponent of every share read.
WAD_PRECISION = Decimal("1E-18")

#: A context that never rounds: its precision and exponent range are the
#: largest Decimal allows.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
#: ``mul_exact(a, b)``: the exact product of two Decimals or ints, whatever
#: the caller's context.  Bound once, it costs about as much as ``a * b``.
mul_exact = _EXACT.multiply
#: ``add_exact(a, b)``: the exact sum, likewise.
add_exact = _EXACT.add
#: ``scaleb_exact(a, n)``: ``a`` times ``10**n``, exactly.
scaleb_exact = _EXACT.scaleb
#: The 28-digit context :func:`to_micro` rounds in, whatever the caller's.
_ROUNDING = Context(prec=28, rounding=ROUND_HALF_EVEN)

#: Micro-unit products at or above this take the Decimal path.
FAST_LIMIT = 2.0 ** 50
#: Twice the largest relative error of one correctly rounded float product.
PRODUCT_ERROR = 2.0 ** -52


def to_micro(value) -> int:
    """Round ``value`` half-even to an int count of micro-units.

    Raises ``ValueError`` for a value ``Decimal`` cannot read (a bool, a
    non-numeric string, a ``Fraction``), NaN, infinities and magnitudes of
    1e22 or more.
    """
    if type(value) is float:
        y = value * 1e6
        if 0.0 < y < FAST_LIMIT:
            n = round(y)
            if 0.5 - abs(y - n) > y * PRODUCT_ERROR:
                return n
    try:
        d = Decimal(value) if isinstance(value, (float, Decimal)) else Decimal(str(value))
    except InvalidOperation:
        raise ValueError(f"amount must be a number, got {value!r}") from None
    if not d.is_finite():
        raise ValueError(f"amount must be finite, got {value!r}")
    try:
        q = d.quantize(PRECISION, context=_ROUNDING)
    except InvalidOperation:
        raise ValueError(
            f"amount {value!r} has too many digits for 6-decimal fixed point"
        ) from None
    return int(scaleb_exact(q, 6))


def amount(value) -> Decimal:
    """Coerce ``value`` to a 6-decimal fixed-point Decimal (half-even).

    Raises ``ValueError`` as :func:`to_micro` does.
    """
    return mul_exact(PRECISION, to_micro(value))


def exact_micro(value):
    """The exact micro-unit count of a collateral amount (an int, float,
    Decimal or Fraction): an int on the 6-decimal grid, an exact Fraction
    off it."""
    if type(value) is int:
        return value * UNIT
    num, den = value.as_integer_ratio()  # in lowest terms
    if UNIT % den:
        return Fraction(num * UNIT, den)
    return num * (UNIT // den)


def from_micro(n):
    """``n`` micro-units as collateral: an exact 6-place Decimal for an int
    count, an exact Fraction for an off-grid one."""
    return mul_exact(PRECISION, n) if type(n) is int else n / UNIT


def to_wad(value) -> int:
    """Floor a share amount (an int, float, Decimal or Fraction) to an int
    count of wads, exactly: a request off the 18-place grid is floored."""
    if type(value) is int:
        return value * WAD
    num, den = value.as_integer_ratio()
    return num * WAD // den


def from_wad(n: int) -> Decimal:
    """``n`` wads as an exact 18-place Decimal."""
    return mul_exact(WAD_PRECISION, n)


def format_micro(n: int) -> str:
    """``n`` micro-units as 6-place decimal text, ``str(PRECISION * n)``."""
    whole, frac = divmod(abs(n), UNIT)
    return f"{'-' if n < 0 else ''}{whole}.{frac:06d}"
