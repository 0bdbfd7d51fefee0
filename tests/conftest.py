import pytest

from rpdml import metric


@pytest.fixture
def train_iterates(monkeypatch):
    """The iterates (W, xi) of the test's ``train`` runs, in order.

    A run keeps no iterate but its last, so the W and slack steps are
    wrapped to keep what they return; the list fills as the runs go.
    """
    points = []
    solve_w, update_slack = metric.inner_solve_w, metric.update_slack

    def keep_w(*args):
        out = solve_w(*args)
        points.append(out[0])
        return out

    def keep_slack(*args):
        # The slack step follows each W step and completes its pair.
        xi = update_slack(*args)
        points[-1] = (points[-1], xi)
        return xi

    monkeypatch.setattr(metric, "inner_solve_w", keep_w)
    monkeypatch.setattr(metric, "update_slack", keep_slack)
    return points
