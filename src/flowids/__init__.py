"""Flow-record intrusion detection with a from-scratch transformer encoder.

Pipeline: tabular flow records are encoded feature-by-feature into [0, 1]
scalars, lifted into learned token sequences ("sentences"), classified by
a causally masked transformer encoder trained with a small reverse-mode
autodiff engine, and scored with a full binary-metrics suite. Everything
runs on numpy float64; no deep-learning framework involved. Each name
lives in its module (``flowids.training.train``, ``flowids.errors.DataError``);
the package only imports the modules.

The usual round trip:

    from flowids import dataio, metrics, sentencing, training
    ds = dataio.synth(400, seed=7)
    result = training.train(ds, training.TrainConfig(model="transformer", lr=1e-3, epochs=2))
    x, y = sentencing.encode_batch(result.test.records, result.schema)
    rep = metrics.report(training.predict_scores(result.params, x), y)
    print(rep.table("encoder"))
"""

from . import dataio, metrics, model, sentencing, tensor, training
