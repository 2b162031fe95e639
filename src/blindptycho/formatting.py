"""Number formatting for the CSV writers (trace and report tables).

Every float in a CSV goes through :func:`g17` so that files are
byte-reproducible across runs and round-trip to the exact same double.
JSON documents are written by ``json.dumps``, whose shortest-repr floats
round-trip as well.
"""


def g17(x: float) -> str:
    """Decimal form with up to 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")
