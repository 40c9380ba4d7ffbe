"""Train both model kinds on synthetic flows and score them side by side.

The synthetic generator hides the class signal in a single feature
(Sload); every other column is noise drawn from the same distribution for
both classes. "separable" puts a clean gap between the classes, "noisy"
overlaps them so that even the best possible classifier has a known error
rate. Training is deterministic given the seed.
"""

import numpy as np

from flowids import dataio, metrics, sentencing, training

print("generating 1200 synthetic flows (separable)")
ds = dataio.synth(1200, seed=5, difficulty="separable")

configs = {
    "transformer": training.TrainConfig(
        model="transformer", dim=16, heads=2, blocks=1, lr=1e-3, epochs=6, seed=0
    ),
    "fnn": training.TrainConfig(model="fnn", epochs=40, seed=0),
}

results = {}
for name, cfg in configs.items():
    print(f"\n--- training {name} ---")
    result = training.train(ds, cfg)
    for row in result.log:
        print(
            f"epoch {row.epoch:3d}  train loss {row.train_loss:.4f}  "
            f"running train acc {row.train_acc:.4f}  val acc {row.val_acc:.4f}"
        )
    results[name] = result

print("\n--- held-out test metrics ---")
reports = {}
for name, result in results.items():
    # the test split's rows by column; encoding reads the values parsed at synth time
    x, y = sentencing.encode_batch(result.test.records, result.schema)
    scores = training.predict_scores(result.params, x)
    reports[name] = metrics.report(scores, y)

print(metrics.render_table(list(reports.items())))

print("--- ROC, first few points (transformer) ---")
rep = reports["transformer"]
print("fpr        tpr")
for fpr, tpr in rep.roc[:6]:
    print(f"{fpr:.4f}    {tpr:.4f}")
print(f"... {len(rep.roc)} points total, AUC = {rep.auc:.4f}")

print("\n--- the noisy variant has a floor on error ---")
noisy = dataio.synth(1200, seed=5, difficulty="noisy", bayes_error=0.15)
result = training.train(noisy, configs["fnn"])
x, y = sentencing.encode_batch(result.test.records, result.schema)
rep = metrics.report(training.predict_scores(result.params, x), y)
print(f"bayes error 0.15 caps accuracy near 0.85; fnn reached {rep.metrics.accuracy:.4f}")
