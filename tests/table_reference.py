"""Reference text tables: every value formatted on its own.

The CLI formats a chunk of rows at once; the tests compare its tables
with these, which apply ``"%.15g"`` to one value at a time.
"""


def rows_text(rows) -> str:
    """Each row's values as ``"%.15g"`` writes them, tab-separated, one row a line."""
    return "".join("\t".join("%.15g" % v for v in row) + "\n" for row in rows)


def table_text(comment_lines, columns) -> str:
    """``comment_lines`` as ``# `` lines, then the equal-length ``columns`` as rows."""
    return "".join(f"# {line}\n" for line in comment_lines) + rows_text(zip(*columns))
