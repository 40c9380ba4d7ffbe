"""Test models, built from hyper dicts as training builds them.

Each size left out takes TrainConfig's default, so the test defaults are the
package's: a transformer of dim 32, 4 heads, 2 blocks, MLP width 4 * dim and
the causal mask on, and an FNN of hidden widths (64, 64).
"""

from flowids.model import FnnParams, ModelParams
from flowids.training import TrainConfig


def new_transformer(tokens, seed=0, **sizes) -> ModelParams:
    """The seed's initial transformer over this many tokens; sizes are TrainConfig's dim, heads, blocks, mlp_dim and mask."""
    return ModelParams.init(TrainConfig(**sizes).hyper(tokens), seed)


def new_fnn(features, hidden=(64, 64), seed=0) -> FnnParams:
    """The seed's initial FNN over this many input features."""
    return FnnParams.init(TrainConfig(model="fnn", fnn_hidden=hidden).hyper(features), seed)
