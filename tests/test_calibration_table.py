"""The pre-calibrated depth table in front of per-cell calibration.

A paper cell's calibrated depth is a pure function of its reference,
operator sequence and target, so the simulator looks it up in
:mod:`repro.llm.calibrated` and scans the quality curve only when the
cell is absent or its fingerprint does not match the row.
"""

from __future__ import annotations

import dataclasses
import functools
import logging

import pytest

import repro.llm.simulated as simulated
from repro.core import calibration_table
from repro.core.calibration_table import derive_rows, paper_cells, render_module
from repro.llm.calibrated import CALIBRATED
from repro.llm.calibration import QualityCurve, calibrate
from repro.llm.corruption import CorruptionOp, _comment_op
from repro.llm.intent import Intent
from repro.llm.profiles import ALL_PROFILES
from repro.llm.simulated import SimulatedModel, cell_fingerprint

from test_llm_generation import _plan_cells

#: one cell per experiment, plus the few-shot configuration cell
CELLS = {
    "configuration": Intent("configuration", system="wilkins"),
    "configuration-few-shot": Intent("configuration", system="henson", fewshot=True),
    "annotation": Intent("annotation", system="parsl", variant="paraphrased"),
    "translation": Intent("translation", source="henson", target="adios2"),
}


@pytest.fixture()
def calibrations(monkeypatch) -> list[tuple]:
    """Count the simulator's curve scans (the name ``e2ebench`` patches too)."""
    calls: list[tuple] = []
    real = simulated.calibrate

    def counting(reference, ops, target, **kwargs):
        calls.append((reference, target))
        return real(reference, ops, target, **kwargs)

    monkeypatch.setattr(simulated, "calibrate", counting)
    return calls


def _retargeted(name: str, key: tuple, shift: float):
    """A copy of a paper profile with one target moved (profiles are shared)."""
    profile = ALL_PROFILES[name]()
    targets = {**profile.targets, key: profile.targets[key] + shift}
    return dataclasses.replace(profile, targets=targets)


def _scan(model: SimulatedModel, intent: Intent):
    """The calibration and text a full curve scan picks for a cell."""
    reference, ops, target, _ = model.calibration_inputs(intent)
    curve = QualityCurve(reference, ops)
    result = calibrate(reference, ops, target, curve=curve)
    return result, curve.text(result.k)


class TestShippedTable:
    def test_table_matches_a_from_scratch_calibration(self):
        rows = derive_rows()
        assert len(rows) == 232
        # tuples of (str, int, float): == on the floats is bit equality
        assert rows == CALIBRATED
        shipped = calibration_table.MODULE_PATH.read_text(encoding="utf-8")
        assert render_module(rows) == shipped

    def test_regenerator_covers_exactly_the_plans_cells(self):
        derived = {(model.name, model._cell_key(intent)) for model, intent in paper_cells()}
        assert derived == set(_plan_cells()) == set(CALIBRATED)

    def test_check_exits_1_on_drift_and_0_when_it_matches(self, monkeypatch, capsys):
        rows = dict(CALIBRATED)
        monkeypatch.setattr(calibration_table, "derive_rows", lambda: rows)
        assert calibration_table.main(["--check"]) == 0
        key = min(rows, key=repr)
        fingerprint, k, bleu = rows[key]
        rows[key] = (fingerprint, k + 1, bleu)
        assert calibration_table.main(["--check"]) == 1
        err = capsys.readouterr().err
        assert "1 rows differ" in err and repr(key) in err


class TestLookup:
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_hit_equals_the_scan(self, name, calibrations):
        intent = CELLS[name]
        model = SimulatedModel(ALL_PROFILES["o3"]())
        cell = model._cell(intent)
        assert calibrations == []  # served from the table
        result, text = _scan(model, intent)
        assert cell.calib == result
        assert cell.text == text

    def test_changed_target_misses_and_calibrates(self, calibrations):
        intent = CELLS["configuration"]
        model = SimulatedModel(
            _retargeted("o3", ("configuration", "wilkins", "original"), 7.5)
        )
        cell = model._cell(intent)
        assert len(calibrations) == 1
        assert cell.calib == _scan(model, intent)[0]
        assert cell.calib.k != CALIBRATED[(model.name, model._cell_key(intent))][1]

    def test_op_change_describe_hides_misses_and_calibrates(self, calibrations, monkeypatch):
        intent = CELLS["annotation"]
        model = SimulatedModel(ALL_PROFILES["o3"]())
        build = model._cell_ops

        def edited(intent, key):
            # another comment text at the same slot: its describe is the same
            ops = build(intent, key)
            i = next(i for i, op in enumerate(ops) if op.kind == "comment")
            kw = ops[i].apply.keywords
            edit = _comment_op(kw["slot"], kw["text"] + " (edited)", (kw["pre"], kw["suf"]))
            assert edit.describe == ops[i].describe and edit is not ops[i]
            ops[i] = edit
            return ops

        monkeypatch.setattr(model, "_cell_ops", edited)
        cell = model._cell(intent)
        assert len(calibrations) == 1
        assert cell.calib == _scan(model, intent)[0]

    def test_mismatch_warns_once_per_cell_naming_model_and_key(self, calibrations, caplog):
        intent = CELLS["translation"]
        model = SimulatedModel(
            _retargeted("llama-3.3-70b", ("translation", ("henson", "adios2"), "original"), 1.0)
        )
        with caplog.at_level(logging.WARNING, logger=simulated.__name__):
            for _ in range(3):
                model._cell(intent)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and len(calibrations) == 1
        message = warnings[0].getMessage()
        assert "sim/llama-3.3-70b" in message
        assert repr(model._cell_key(intent)) in message

    def test_absent_key_calibrates_silently(self, calibrations, caplog):
        profile = dataclasses.replace(ALL_PROFILES["o3"](), name="o3-user")
        model = SimulatedModel(profile)
        with caplog.at_level(logging.WARNING, logger=simulated.__name__):
            model._cell(CELLS["configuration"])
        assert len(calibrations) == 1
        assert caplog.records == []


class TestFingerprint:
    def test_each_input_moves_the_fingerprint(self):
        model = SimulatedModel(ALL_PROFILES["o3"]())
        reference, ops, target, fingerprint = model.calibration_inputs(CELLS["configuration"])
        assert fingerprint == cell_fingerprint(reference, ops, target)
        moved = {
            cell_fingerprint(reference + " ", ops, target),
            cell_fingerprint(reference, ops, target + 1e-9),
            cell_fingerprint(reference, ops[::-1], target),
            cell_fingerprint(reference, ops[:-1], target),
        }
        assert fingerprint not in moved and len(moved) == 4

    def test_an_op_without_identity_has_no_fingerprint(self):
        model = SimulatedModel(ALL_PROFILES["o3"]())
        reference, ops, target, _ = model.calibration_inputs(CELLS["configuration"])
        lam = CorruptionOp("comment", 1, "lambda", lambda lines: lines)
        local = CorruptionOp("comment", 1, "closure", functools.partial(lambda lines: lines))
        assert cell_fingerprint(reference, [*ops, lam], target) is None
        assert cell_fingerprint(reference, [*ops, local], target) is None
