"""Memo tables key on the arguments of a call as given (``scalar.memo``).

A memoised function reads and checks its labels in its body, so a hit
reads no label; a list label is computed and not stored, and a keyword
call keys apart from a positional one, and both give the tuple answer.
"""

from fractions import Fraction

import pytest

from qtmac import comb, emac, istar
from qtmac.scalar import GENERIC, specialized

POINT = specialized(Fraction(-2, 3), Fraction(5, 7))


@pytest.mark.parametrize("ctx", [GENERIC, POINT],
                         ids=lambda ctx: ctx.params_label())
@pytest.mark.parametrize("fn, args", [
    (emac.common_form, ((1, 0, 2), True)),
    (emac.generate_E, ((1, 0, 2),)),
    (istar.spectral_evaluate, ((1, 0, 2), (2, 1, 2))),
    (istar.one_step_ratio, ((1, 0, 2), (1, 2, 1))),
    (istar.binomial_recursive, ((0, 1, 0), (1, 1, 1))),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_a_memo_hit_reads_no_label(fn, args, ctx, monkeypatch):
    first = fn(*args, ctx)
    reads = []
    read = comb.as_composition
    monkeypatch.setattr(comb, "as_composition",
                        lambda parts: reads.append(parts) or read(parts))
    assert fn(*args, ctx) == first
    assert reads == []


@pytest.mark.parametrize("fn, labels", [
    (emac.generate_E, ((1, 0, 2),)),
    (istar.generate_Estar, ((1, 0, 2),)),
    (emac.symmetrize_P, ((2, 1, 0), 3)),
    (istar.spectral_evaluate, ((1, 0, 2), (2, 1, 2))),
    (istar.binomial_direct, ((0, 1, 0), (1, 1, 1))),
    (istar.binomial_recursive, ((0, 1, 0), (1, 1, 1))),
    (istar.one_step_ratio, ((1, 0, 2), (1, 2, 1))),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_list_labels_and_keyword_calls_give_the_tuple_answer(fn, labels):
    want = fn(*labels, POINT)
    lists = [list(x) if isinstance(x, tuple) else x for x in labels]
    # a list label is not stored, so the second call computes again
    assert fn(*lists, POINT) == want
    assert fn(*lists, POINT) == want
    assert fn(*labels, ctx=POINT) == want
    assert fn(*lists, ctx=POINT) == want

