"""Fixed-point collateral arithmetic: int micro-units inside, Decimal outside.

Token balances follow the 6-fractional-digit stablecoin convention.  The
ledger and the pools store every token balance, pool reserve and locked
amount as a Python ``int`` count of micro-units (value x 10**6), as on-chain
token contracts keep integer base units.  So a bet moves tokens with int
``+`` and ``-``, and conservation is checked with exact ``==``, never with a
tolerance.  Public reads (balances, ``locked``, reserves, snapshots, bet
records) are 6-place Decimals built from those ints.

The converters:

* :func:`to_micro` rounds any collateral amount (float, Decimal, int, str)
  half-even to int micro-units, and rejects NaN, infinities and magnitudes of
  1e22 or more, which cannot carry six decimals in the 28-digit Decimal
  context.
* :func:`amount` is the same rounding as a 6-place Decimal,
  ``PRECISION * to_micro(value)``; a value that rounds to zero gives
  :data:`ZERO`, never ``-0.000000``.
* ``n / UNIT`` is the float of ``n`` micro-units.  CPython's int true
  division is correctly rounded, so it equals ``float(PRECISION * n)`` bit
  for bit, at a fraction of the cost.
* :func:`format_micro` is the text of ``n`` micro-units, equal to
  ``str(PRECISION * n)``.

Rounding a float is the hot case (every swap leg's output is a float), and
expanding the whole binary float into a Decimal just to round it is slow.
:func:`to_micro` therefore rounds a positive float ``x`` as ``round(x * 1e6)``
when that provably gives the same result as
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

Everything else (zero and ``-0.0``, negatives, values near a tie, values of
``2**50 / 1e6`` (about 1.1e9) and more, strings) takes the exact Decimal
path.  An ``int`` below 1e22 is ``value * UNIT`` exactly.  A positive
``Decimal`` takes the float fast path through
``float(value)``, which is correctly rounded too: its product is off by at
most ``y * 2**-52`` (two roundings), so the gap it must clear is doubled to
``y * 2**-51``.  Values on the grid, the common case (wagers and balances
on their way into the ledger), sit a whole half-unit from any tie.
"""

from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN

PRECISION = Decimal("0.000001")
ZERO = Decimal("0.000000")
#: Micro-units per unit of collateral.
UNIT = 1_000_000

#: Micro-unit products at or above this take the Decimal path.
_FAST_LIMIT = 2.0 ** 50
#: Twice the largest relative error of one correctly rounded float product.
_PRODUCT_ERROR = 2.0 ** -52
#: The same bound for a Decimal, rounded once to a float and once more by
#: the product, with a factor of two to spare.
_DECIMAL_ERROR = 2.0 ** -51
#: Whole amounts below this carry six decimals in the 28-digit context.
_INT_LIMIT = 10 ** 22


def to_micro(value) -> int:
    """Round ``value`` half-even to an int count of micro-units.

    Raises ``ValueError`` for NaN, infinities and magnitudes of 1e22 or more.
    """
    if type(value) is float:
        y = value * 1e6
        if 0.0 < y < _FAST_LIMIT:
            n = round(y)
            if 0.5 - abs(y - n) > y * _PRODUCT_ERROR:
                return n
        d = Decimal(value)
    elif isinstance(value, Decimal):
        y = float(value) * 1e6
        if 0.0 < y < _FAST_LIMIT:
            n = round(y)
            if 0.5 - abs(y - n) > y * _DECIMAL_ERROR:
                return n
        d = value
    elif type(value) is int and -_INT_LIMIT < value < _INT_LIMIT:
        return value * UNIT
    elif isinstance(value, float):
        d = Decimal(value)
    else:
        d = Decimal(str(value))
    if not d.is_finite():
        raise ValueError(f"amount must be finite, got {value!r}")
    try:
        q = d.quantize(PRECISION, rounding=ROUND_HALF_EVEN)
    except InvalidOperation:
        raise ValueError(
            f"amount {value!r} has too many digits for 6-decimal fixed point"
        ) from None
    return int(q.scaleb(6))


def amount(value) -> Decimal:
    """Coerce ``value`` to a 6-decimal fixed-point Decimal (half-even).

    Raises ``ValueError`` for NaN, infinities and magnitudes of 1e22 or more.
    """
    return PRECISION * to_micro(value)


def format_micro(n: int) -> str:
    """``n`` micro-units as 6-place decimal text, ``str(PRECISION * n)``."""
    whole, frac = divmod(abs(n), UNIT)
    return f"{'-' if n < 0 else ''}{whole}.{frac:06d}"
