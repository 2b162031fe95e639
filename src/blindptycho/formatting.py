"""Number formatting for the CSV writers (trace and report tables).

Every number in a CSV is written by the :func:`cell` format of its dataclass
field, so files are byte-reproducible and floats round-trip to the same
double.  JSON documents are written by ``json.dumps``, whose shortest-repr
floats round-trip as well.
"""


def cell(field) -> str:
    """%-format of a field's CSV cell, read by name from a mapping: an ``int``
    field as it is, any other with up to 17 significant digits (lossless)."""
    return f"%({field.name})" + ("s" if field.type in (int, "int") else ".17g")
