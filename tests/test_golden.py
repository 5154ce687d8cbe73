"""Golden output pins: the stock model's logits, loss and gradients, and
the committed checkpoint's event report, against ``tests/data/``.

Regenerate the fixture with ``tests/make_golden.py`` when a change alters
numerics on purpose.
"""

import json

import numpy as np
import pytest

import make_golden


@pytest.fixture(scope="module")
def stock_outputs():
    return make_golden.stock_model_outputs()


def test_golden_fixture_names_every_output(stock_outputs):
    want = np.load(make_golden.ARRAYS)
    assert sorted(want.files) == sorted(stock_outputs)


@pytest.mark.parametrize("name", [f"logits.{head}" for head in make_golden.HEADS] + ["loss"]
                         + [f"grad.{name}" for name in make_golden.GRAD_NAMES])
def test_stock_model_matches_golden(stock_outputs, name):
    make_golden.assert_array_matches(stock_outputs[name], np.load(make_golden.ARRAYS)[name])


def test_checkpoint_report_matches_golden():
    want = json.loads(make_golden.REPORT.read_text())
    make_golden.assert_report_matches(make_golden.checkpoint_report().to_json_dict(), want)
