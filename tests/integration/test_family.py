"""Integration across the spectral-regression family.

Every member shares the same two-step skeleton — spectral responses,
then regression — and must behave consistently on a common problem.
"""

import numpy as np
import pytest

from repro import (
    KernelSRDA,
    SemiSupervisedSRDA,
    SparseSRDA,
    SpectralRegressionEmbedding,
    SRDA,
)
from repro.baselines import ridge as ridge_module
from repro.baselines.ridge import RidgeClassifier
from repro.core import semi_supervised as semi_supervised_module
from repro.core import spectral_embedding as spectral_embedding_module
from repro.core.solver_config import SolverConfig
from repro.eval.classifiers import NearestCentroid


@pytest.fixture(scope="module")
def family_problem():
    rng = np.random.default_rng(99)
    centers = 5.0 * rng.standard_normal((4, 18))
    y = np.repeat(np.arange(4), 30)
    X = centers[y] + 1.2 * rng.standard_normal((120, 18))
    X_test = centers[y] + 1.2 * rng.standard_normal((120, 18))
    return X, y, X_test


class TestFamilyConsistency:
    def test_all_supervised_members_classify_well(self, family_problem):
        X, y, X_test = family_problem
        members = {
            "SRDA": SRDA(alpha=1.0),
            "KernelSRDA": KernelSRDA(alpha=1.0, kernel="linear"),
            "SparseSRDA": SparseSRDA(alpha=0.3, l1_ratio=0.8),
        }
        for name, model in members.items():
            model.fit(X, y)
            assert model.score(X_test, y) > 0.9, name

    def test_embeddings_expose_the_same_class_structure(self, family_problem):
        """All supervised members' embeddings classify equally well
        through an external nearest-centroid read-out."""
        X, y, X_test = family_problem
        for model in (
            SRDA(alpha=1.0),
            SparseSRDA(alpha=0.3, l1_ratio=0.8),
            KernelSRDA(alpha=1.0, kernel="linear"),
        ):
            model.fit(X, y)
            Z_train = model.transform(X)
            Z_test = model.transform(X_test)
            readout = NearestCentroid().fit(Z_train, y)
            assert readout.score(Z_test, y) > 0.9, type(model).__name__

    def test_semi_supervised_approaches_supervised_with_all_labels(
        self, family_problem
    ):
        X, y, X_test = family_problem
        fully = SemiSupervisedSRDA(alpha=1.0, supervised_weight=10.0,
                                   n_neighbors=7).fit(X, y)
        supervised = SRDA(alpha=1.0).fit(X, y)
        assert fully.score(X_test, y) >= supervised.score(X_test, y) - 0.05

    def test_unsupervised_embedding_is_class_informative(self, family_problem):
        """Even without labels, the spectral embedding supports an
        after-the-fact centroid classifier well above chance."""
        X, y, X_test = family_problem
        embedding = SpectralRegressionEmbedding(
            n_components=3, n_neighbors=8
        ).fit(X)
        readout = NearestCentroid().fit(embedding.transform(X), y)
        accuracy = readout.score(embedding.transform(X_test), y)
        assert accuracy > 0.6  # chance = 0.25

    def test_shared_responses_across_supervised_members(self, family_problem):
        """SRDA and SparseSRDA literally share the spectral step."""
        from repro.core.responses import generate_responses

        X, y, _ = family_problem
        srda = SRDA(alpha=1.0).fit(X, y)
        expected = generate_responses(y, 4)
        assert np.allclose(srda.responses_, expected)

    def test_all_members_reject_single_class(self, family_problem):
        X, _, _ = family_problem
        y_bad = np.zeros(X.shape[0], dtype=int)
        for model in (
            SRDA(),
            SparseSRDA(),
            KernelSRDA(),
        ):
            with pytest.raises(ValueError):
                model.fit(X, y_bad)


@pytest.mark.parametrize(
    "module, operator, make",
    [
        (
            ridge_module,
            "AppendOnesOperator",
            lambda: RidgeClassifier(
                config=SolverConfig(solver="lsqr"), max_iter=6, tol=0.0
            ),
        ),
        (
            semi_supervised_module,
            "CenteringOperator",
            lambda: SemiSupervisedSRDA(
                config=SolverConfig(solver="lsqr"), max_iter=6, tol=0.0
            ),
        ),
        (
            spectral_embedding_module,
            "CenteringOperator",
            lambda: SpectralRegressionEmbedding(
                n_components=4, solver="lsqr", max_iter=6, tol=0.0
            ),
        ),
    ],
    ids=["ridge", "semi_supervised", "spectral_embedding"],
)
def test_lsqr_members_share_each_pass_across_columns(
    monkeypatch, module, operator, make
):
    """One forward and one adjoint block product per LSQR iteration,
    whatever the number of regression columns."""
    rng = np.random.default_rng(5)
    centers = 5.0 * rng.standard_normal((5, 18))
    y = np.repeat(np.arange(5), 20)
    X = centers[y] + rng.standard_normal((100, 18))
    built = []
    cls = getattr(module, operator)

    def build(*args, **kwargs):
        built.append(cls(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(module, operator, build)
    model = make().fit(X, y)
    [op] = built
    iterations = max(model.lsqr_iterations_)
    assert len(model.lsqr_iterations_) >= 4 and iterations == 6
    assert (op.n_matmat, op.n_rmatmat) == (iterations, iterations + 1)
    assert (op.n_matvec, op.n_rmatvec) == (0, 0)
