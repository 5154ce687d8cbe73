"""Golden output pins: the stock model's logits, loss and gradients, and
the committed checkpoint's event report, against ``tests/data/``.

Regenerate the fixture with ``tests/make_golden.py`` when a change alters
numerics on purpose.
"""

import json

import numpy as np
import pytest

import make_golden

# Each array may differ from the fixture by 1e-4 of its largest magnitude.
# That is ten times the largest gap between the float32 model and the same
# model run in float64 on these inputs (3e-6 to 9e-6 for the logits and
# gradients, 3e-9 for the loss), so another BLAS build or thread count
# passes, and a changed layer or loss does not.
REL_ATOL = 1e-4


@pytest.fixture(scope="module")
def stock_outputs():
    return make_golden.stock_model_outputs()


def test_golden_fixture_names_every_output(stock_outputs):
    want = np.load(make_golden.ARRAYS)
    assert sorted(want.files) == sorted(stock_outputs)


@pytest.mark.parametrize("name", [f"logits.{head}" for head in make_golden.HEADS] + ["loss"]
                         + [f"grad.{name}" for name in make_golden.GRAD_NAMES])
def test_stock_model_matches_golden(stock_outputs, name):
    want = np.load(make_golden.ARRAYS)[name]
    got = stock_outputs[name]
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=REL_ATOL * np.abs(want).max())


def test_checkpoint_report_matches_golden():
    want = json.loads(make_golden.REPORT.read_text())
    got = make_golden.checkpoint_report().to_json_dict()
    assert got["markings"] == want["markings"]
    for key in ("beats", "downbeats", "change_points"):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-6, err_msg=key)
