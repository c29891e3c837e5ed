import math
import random

import numpy as np
import pytest

from oracles import fleiss_kappa_exact, prf_by_hand
from toxikit.corpus import Expression, Platform, TargetGroup, Topic, ToxiSample
from toxikit.metrics import (
    MetricsError,
    RatingMatrix,
    expression_accuracy_breakdown,
    fleiss_kappa,
    weighted_prf,
)


# ---------------------------------------------------------------- weighted_prf

def test_perfect_predictions():
    prf = weighted_prf([0, 1, 2, 1], [0, 1, 2, 1], n_classes=3)
    assert (prf.precision, prf.recall, prf.f1) == (100.0, 100.0, 100.0)


def test_hand_confusion_matrix_fixture():
    # class 0: tp=1 fp=0 fn=1 → P=1, R=.5, F=2/3; class 1: tp=2 fp=1 fn=0 → P=2/3, R=1, F=.8
    prf = weighted_prf([0, 1, 1, 1], [0, 0, 1, 1], n_classes=2)
    assert math.isclose(prf.precision, 100 * 5 / 6)
    assert prf.recall == 75.0
    assert math.isclose(prf.f1, 100 * 11 / 15)
    assert prf.support == (2, 2)


def test_all_one_class_on_balanced_gold():
    prf = weighted_prf([1, 1, 1, 1], [0, 0, 1, 1], n_classes=2)
    assert prf.recall == 50.0
    assert prf.zero_division_hits == 1  # class 0 never predicted


def test_matches_by_hand_tally_on_fuzz():
    rng = random.Random(21)
    for mode in ["single"] * 200 + ["multilabel"] * 200:
        n_classes = rng.randint(2, 5)
        n = rng.randint(1, 40)
        if mode == "single":
            golds = [rng.randrange(n_classes) for _ in range(n)]
            preds = [rng.randrange(n_classes) for _ in range(n)]
        else:
            golds = [[int(rng.random() < 0.4) for _ in range(n_classes)] for _ in range(n)]
            preds = [[int(rng.random() < 0.4) for _ in range(n_classes)] for _ in range(n)]
            if not any(map(any, golds)):
                golds[0][0] = 1  # some gold support, or there is nothing to weigh
        prf = weighted_prf(preds, golds, n_classes, mode=mode)
        p, r, f = prf_by_hand(preds, golds, n_classes)
        assert math.isclose(prf.precision, p, abs_tol=1e-9)
        assert math.isclose(prf.recall, r, abs_tol=1e-9)
        assert math.isclose(prf.f1, f, abs_tol=1e-9)


@pytest.mark.parametrize("mode", ["single", "multilabel"])
def test_a_class_never_predicted_and_never_gold_scores_zero_and_hits_once(mode):
    # classes 0 and 1 as in test_hand_confusion_matrix_fixture, plus class 2 that no row holds
    preds, golds = [0, 1, 1, 1], [0, 0, 1, 1]
    if mode == "multilabel":
        preds, golds = ([[int(c == y) for c in range(3)] for y in ys] for ys in (preds, golds))
    prf = weighted_prf(preds, golds, n_classes=3, mode=mode)
    two_classes = weighted_prf([0, 1, 1, 1], [0, 0, 1, 1], n_classes=2)
    assert prf.support == (2, 2, 0)
    assert prf.zero_division_hits == 1
    # class 2 weighs 0, so its P = R = F1 = 0 leaves each average as it is without it
    assert (prf.precision, prf.recall, prf.f1) == (two_classes.precision, two_classes.recall, two_classes.f1)
    assert (prf.precision, prf.recall, prf.f1) == pytest.approx(prf_by_hand(preds, golds, 3), abs=1e-9)


def test_pair_order_permutation_invariant():
    rng = random.Random(8)
    golds = [rng.randrange(3) for _ in range(30)]
    preds = [rng.randrange(3) for _ in range(30)]
    base = weighted_prf(preds, golds, 3)
    order = list(range(30))
    rng.shuffle(order)
    shuffled = weighted_prf([preds[i] for i in order], [golds[i] for i in order], 3)
    assert (base.precision, base.recall, base.f1) == (
        shuffled.precision,
        shuffled.recall,
        shuffled.f1,
    )


def test_class_relabeling_invariant():
    rng = random.Random(9)
    golds = [rng.randrange(4) for _ in range(50)]
    preds = [rng.randrange(4) for _ in range(50)]
    base = weighted_prf(preds, golds, 4)
    mapping = [2, 0, 3, 1]
    remapped = weighted_prf([mapping[p] for p in preds], [mapping[g] for g in golds], 4)
    assert math.isclose(base.precision, remapped.precision)
    assert math.isclose(base.recall, remapped.recall)
    assert math.isclose(base.f1, remapped.f1)


def test_multilabel_mode():
    golds = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
    preds = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]], dtype=float)
    prf = weighted_prf(preds, golds, n_classes=4, mode="multilabel")
    # label 0: P=1 R=1 F=1 (support 2); label 1: P=0 R=0 F=0 (support 1);
    # label 2: P=1 R=1 F=1 (support 1); label 3: support 0 → weight 0
    assert math.isclose(prf.precision, 75.0)
    assert math.isclose(prf.recall, 75.0)
    assert math.isclose(prf.f1, 75.0)
    assert prf.support == (2, 1, 1, 0)


def test_prf_input_validation():
    with pytest.raises(MetricsError):
        weighted_prf([], [], 2)
    with pytest.raises(MetricsError):
        weighted_prf([0, 1], [0], 2)
    with pytest.raises(MetricsError):
        weighted_prf([0, 1], [0, 1], 2, mode="macro")


# ---------------------------------------------------------------- breakdown

def _sample(i, toxic, expression=None):
    hate = expression is not None
    return ToxiSample(
        id=i,
        platform=Platform.ZHIHU,
        topic=Topic.GENDER,
        text="字",
        toxic=toxic,
        hate=int(hate),
        groups=frozenset({TargetGroup.SEXISM}) if hate else frozenset(),
        expression=expression,
    )


def _eight_sample_fixture():
    golds = [
        _sample(0, 0),
        _sample(1, 0),
        _sample(2, 1, Expression.EXPLICIT),
        _sample(3, 1, Expression.EXPLICIT),
        _sample(4, 1, Expression.IMPLICIT),
        _sample(5, 1, Expression.IMPLICIT),
        _sample(6, 1, Expression.REPORTING),
        _sample(7, 1, Expression.REPORTING),
    ]
    return golds


def test_breakdown_all_predicted_toxic():
    golds = _eight_sample_fixture()
    strata = expression_accuracy_breakdown([1] * 8, golds)
    assert strata["non_toxic"].accuracy == 0.0
    for name in ("explicit", "implicit", "reporting"):
        assert strata[name].accuracy == 100.0


def test_breakdown_one_implicit_error():
    golds = _eight_sample_fixture()
    preds = [0, 0, 1, 1, 1, 0, 1, 1]
    strata = expression_accuracy_breakdown(preds, golds)
    assert strata["implicit"].accuracy == 50.0
    for name in ("non_toxic", "explicit", "reporting"):
        assert strata[name].accuracy == 100.0


def test_breakdown_offensive_counts_as_explicit():
    golds = [_sample(0, 1), _sample(1, 1, Expression.EXPLICIT)]  # offensive + explicit hate
    strata = expression_accuracy_breakdown([1, 0], golds)
    assert strata["explicit"].total == 2
    assert strata["explicit"].correct == 1


def test_breakdown_empty_strata_absent():
    golds = [_sample(0, 0), _sample(1, 1, Expression.EXPLICIT)]
    strata = expression_accuracy_breakdown([0, 1], golds)
    assert set(strata) == {"non_toxic", "explicit"}


def test_breakdown_weighted_combination_equals_overall_accuracy():
    rng = random.Random(17)
    expressions = [None, Expression.EXPLICIT, Expression.IMPLICIT, Expression.REPORTING]
    for _ in range(100):
        n = rng.randint(1, 60)
        golds, preds = [], []
        for i in range(n):
            toxic = rng.random() < 0.6
            expr = rng.choice(expressions) if toxic else None
            golds.append(_sample(i, int(toxic), expr))
            preds.append(rng.randrange(2))
        strata = expression_accuracy_breakdown(preds, golds)
        combined = sum(row.correct for row in strata.values())
        total = sum(row.total for row in strata.values())
        overall = sum(
            int(p == g.toxic) for p, g in zip(preds, golds)
        )
        assert total == n and combined == overall


# ---------------------------------------------------------------- fleiss kappa

def test_unanimous_agreement_is_exactly_one():
    matrix = RatingMatrix(counts=((3, 0), (0, 3)))
    assert fleiss_kappa(matrix) == 1.0


def test_two_rater_swap_is_exactly_minus_one():
    assert fleiss_kappa([[1, 1], [1, 1]]) == -1.0


def test_single_category_unanimity():
    # all mass in one category: chance term degenerates but agreement is perfect
    assert fleiss_kappa([[2, 0], [2, 0]]) == 1.0


def test_kappa_matches_exact_oracle_on_random_matrices():
    rng = random.Random(23)
    for _ in range(200):
        items = rng.randint(2, 20)
        cats = rng.randint(2, 5)
        raters = rng.randint(2, 7)
        counts = []
        for _ in range(items):
            row = [0] * cats
            for _ in range(raters):
                row[rng.randrange(cats)] += 1
            counts.append(row)
        exact = fleiss_kappa_exact(counts)
        if exact is None:
            assert fleiss_kappa(counts) == 1.0
        else:
            assert abs(fleiss_kappa(counts) - float(exact)) < 1e-12


def test_kappa_one_iff_every_row_unanimous():
    rng = random.Random(29)
    for _ in range(300):
        items = rng.randint(1, 8)
        raters = rng.randint(2, 5)
        counts = []
        for _ in range(items):
            row = [0, 0, 0]
            for _ in range(raters):
                row[rng.randrange(3)] += 1
            counts.append(row)
        unanimous = all(max(row) == raters for row in counts)
        assert (fleiss_kappa(counts) == 1.0) == unanimous


def test_rating_matrix_validation():
    with pytest.raises(MetricsError):
        RatingMatrix(counts=((1, 2), (2, 2)))  # unequal row sums
    with pytest.raises(MetricsError):
        RatingMatrix(counts=((1,), (2,)))  # single category
    with pytest.raises(MetricsError):
        RatingMatrix(counts=((1, 0), (1, 0)))  # one rater
    with pytest.raises(MetricsError):
        RatingMatrix(counts=())
    with pytest.raises(MetricsError):
        RatingMatrix(counts=((2, -1), (1, 0)))
