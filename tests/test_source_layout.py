"""Each numerical primitive has exactly one implementation in the package.

The unitary DFT lives in ``spectral`` (``spatial_fft``, plus the
unnormalized ``multiplier_kernel``); rectangle increments of R live in
``covariance.cross_increments``; a symbol is evaluated on the grid only by
``spectral.symbol_on_grid``.  A new copy elsewhere fails here.
"""

import re
from pathlib import Path

import spdelab

SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted(Path(spdelab.__file__).parent.glob("*.py"))}


def test_fftn_only_in_spectral():
    hits = sorted({name for name, text in SOURCES.items()
                   if re.search(r"np\.fft\.i?fftn\b", text)})
    assert hits == ["spectral.py"]


def test_rectangle_increment_only_in_cross_increments():
    pattern = re.compile(r"\[1:,\s*1:\]\s*-\s*\w+\[1:,\s*:-1\]")
    hits = [(name, m.start()) for name, text in SOURCES.items()
            for m in pattern.finditer(text)]
    assert [name for name, _ in hits] == ["covariance.py"]
    text = SOURCES["covariance.py"]
    start = text.index("def cross_increments(")
    end = text.index("\ndef ", start + 1)
    assert start < hits[0][1] < end


def test_symbol_eval_only_in_symbol_on_grid():
    # symbols.py builds symbols from other symbols' eval; everywhere else a
    # symbol reaches the grid through symbol_on_grid (at_zero, NaN check,
    # one batched call per time column)
    pattern = re.compile(r"\.eval\(")
    hits = [(name, m.start()) for name, text in SOURCES.items()
            if name != "symbols.py" for m in pattern.finditer(text)]
    assert hits and {name for name, _ in hits} == {"spectral.py"}
    text = SOURCES["spectral.py"]
    start = text.index("def symbol_on_grid(")
    end = text.index("\ndef ", start + 1)
    assert all(start < pos < end for _, pos in hits)
