"""Fixed-point collateral arithmetic.

Token balances follow the 6-fractional-digit stablecoin convention.  All
ledger mutations happen in this representation so that conservation
invariants can be checked with exact equality, never with a tolerance.
Decimal addition/subtraction/multiplication is exact at these scales; only
values produced by division or by float-valued pricing math need to pass
through :func:`amount` before they touch a balance.

Rounding a float is the hot case (every swap leg's output is a float), and
expanding the whole binary float into a Decimal just to round it is slow.
:func:`amount` therefore rounds a positive float ``x`` as ``round(x * 1e6)``
micro-units when that provably gives the same result as
``Decimal(x).quantize(PRECISION, ROUND_HALF_EVEN)``:

* ``1e6`` is exact in binary, so ``y = x * 1e6`` is the exact product
  ``x * 10**6`` correctly rounded, off by at most ``y * 2**-53`` (or far less
  than that when ``y`` is subnormal).
* The exact product and ``y`` round to the same integer unless a half-integer
  lies between them.  The half-integer nearest ``y`` is ``0.5 - |y - n|``
  away, where ``n = round(y)``; when that exceeds ``y * 2**-52`` no
  half-integer can lie between them, and no exact tie can occur either.
* For ``y < 2**50`` the subtractions above are exact or, when rounded, leave
  a gap of at least a quarter, far above ``y * 2**-52 < 0.25``; and ``n``
  has at most 16 digits, so ``PRECISION * n`` is exact: coefficient ``n``,
  exponent -6, the same value and ``str`` that ``quantize`` produces.

Everything else (zero and ``-0.0``, negatives, values near a tie, values of
``2**50 / 1e6`` (about 1.1e9) and more, other types) takes the exact Decimal
path, which also rejects NaN and infinities, and values too large to carry
six decimals in the 28-digit Decimal context (1e22 and more).  A
``Decimal``, the other common case (balances and wagers re-rounded on their
way into the ledger), is quantized straight away.
"""

from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN

PRECISION = Decimal("0.000001")
ZERO = Decimal("0.000000")

#: Micro-unit products at or above this take the Decimal path.
_FAST_LIMIT = 2.0 ** 50
#: Twice the largest relative error of one correctly rounded float product.
_PRODUCT_ERROR = 2.0 ** -52


def amount(value) -> Decimal:
    """Coerce ``value`` to a 6-decimal fixed-point Decimal (half-even).

    Raises ``ValueError`` for NaN, infinities and magnitudes of 1e22 or more.
    """
    if type(value) is float:
        y = value * 1e6
        if 0.0 < y < _FAST_LIMIT:
            n = round(y)
            if 0.5 - abs(y - n) > y * _PRODUCT_ERROR:
                return PRECISION * n
        d = Decimal(value)
    elif isinstance(value, Decimal):
        # re-rounding a balance or wager that is already a Decimal
        d = value
    elif isinstance(value, float):
        d = Decimal(value)
    else:
        d = Decimal(str(value))
    if not d.is_finite():
        raise ValueError(f"amount must be finite, got {value!r}")
    try:
        return d.quantize(PRECISION, rounding=ROUND_HALF_EVEN)
    except InvalidOperation:
        raise ValueError(
            f"amount {value!r} has too many digits for 6-decimal fixed point"
        ) from None
