"""Table 3: TBNI prediction accuracy of incident-probability models.

Paper values: Exponential 75.12%, Exponential-per-incident-count
63.03%, Exponential-per-hour 75.12%, Cox-Time 93.13%.  We regenerate
the comparison on a synthetic fleet whose hazards are heterogeneous
(log-normal frailty with telemetry covariates) and wear-shaped
(Weibull within-episode hazard), using the paper's conventions:
80/20 split, predictions and actuals capped at the 2,400-hour trace
length, censored rows recorded at the cap.
"""

import pytest

from conftest import print_table
from repro.hardware.degradation import WearModel
from repro.simulation.generator import generate_incident_trace
from repro.survival.coxtime import CoxTimeModel
from repro.survival.data import extract_status_samples
from repro.survival.exponential import (
    ExponentialModel,
    ExponentialPerHour,
    ExponentialPerIncidentCount,
)
from repro.survival.metrics import evaluate_model

PAPER = {
    "Exponential Distribution": 75.12,
    "Exponential Distribution per Incident Count": 63.03,
    "Exponential Distribution per Hour": 75.12,
    "Cox-Time Model": 93.13,
}


@pytest.fixture(scope="module")
def datasets():
    wear = WearModel(base_mtbi_hours=5000.0)
    trace = generate_incident_trace(600, 2400.0, wear=wear,
                                    frailty_sigma=1.4, gap_shape=3.0, seed=5)
    fit_ds = extract_status_samples(trace, snapshot_interval_hours=48.0)
    score_ds = extract_status_samples(trace, snapshot_interval_hours=48.0,
                                      censored_tbni="horizon")
    train, _ = fit_ds.split(0.8, seed=0)
    _, test = score_ds.split(0.8, seed=0)
    return train, test


@pytest.fixture(scope="module")
def accuracies(datasets):
    train, test = datasets
    results = {}
    results["Exponential Distribution"] = evaluate_model(
        ExponentialModel().fit(train), test, events_only=False)
    results["Exponential Distribution per Incident Count"] = evaluate_model(
        ExponentialPerIncidentCount().fit(train), test, events_only=False)
    results["Exponential Distribution per Hour"] = evaluate_model(
        ExponentialPerHour().fit(train), test, events_only=False)
    cox = CoxTimeModel(hidden=(64, 64), epochs=80, n_controls=8,
                       learning_rate=0.01, grid_size=128, seed=0).fit(train)
    results["Cox-Time Model"] = evaluate_model(cox, test, events_only=False)
    return results, test


def test_table3_probability_models(accuracies):
    results, test = accuracies

    rows = [(name, f"{100 * acc:.2f}%", f"{PAPER[name]:.2f}%")
            for name, acc in results.items()]
    print_table(f"Table 3: TBNI accuracy on {len(test)} status samples",
                ["model", "measured", "paper"], rows)

    # Shape: Cox-Time clearly wins; exponential baselines sit in the
    # low-to-mid 70s-80s band.
    cox_acc = results["Cox-Time Model"]
    baselines = [acc for name, acc in results.items() if name != "Cox-Time Model"]
    assert cox_acc > max(baselines) + 0.03
    assert cox_acc > 0.85
    assert all(0.60 < acc < 0.88 for acc in baselines)
