"""Model registry — Tables I & IV of the paper as code.

``MODEL_INFO`` records each model's characteristics from Table I
(#states formula, network type); :func:`make_model` builds a model
instance by name with the paper-suggested hyper-parameters as defaults.
"""
from __future__ import annotations

from typing import Dict

from repro.models.deepwalk import DeepWalk
from repro.models.edge2vec import Edge2Vec
from repro.models.fairwalk import FairWalk
from repro.models.metapath2vec import MetaPath2Vec
from repro.models.node2vec import Node2Vec

#: Table I — characteristics of the five random walk based NRL models.
MODEL_INFO: Dict[str, dict] = {
    "deepwalk": {"states": "|V|", "network": "homogeneous", "order": 1},
    "node2vec": {"states": "|E|", "network": "homogeneous", "order": 2},
    "metapath2vec": {"states": "|V||Phi|", "network": "heterogeneous", "order": 1},
    "edge2vec": {"states": "|E|", "network": "heterogeneous", "order": 2},
    "fairwalk": {"states": "|E|", "network": "attributed", "order": 2},
}


#: The model class of each registry name.
_MODELS = {
    "deepwalk": DeepWalk,
    "node2vec": Node2Vec,
    "metapath2vec": MetaPath2Vec,
    "edge2vec": Edge2Vec,
    "fairwalk": FairWalk,
}
#: Paper §V-D settings that differ from the class defaults: edge2vec is
#: evaluated at (p, q) = (0.25, 0.25); fairwalk's (1, 1) is the default.
_PAPER_KW = {"edge2vec": dict(p=0.25, q=0.25)}


def make_model(name: str, **kw):
    """Instantiate a model by name; ``kw`` (``p``/``q``/``metapath``/``M``
    where the model has them) overrides the paper-suggested defaults.
    Unknown names raise ``KeyError``, keywords the model does not take
    ``TypeError``."""
    return _MODELS[name](**{**_PAPER_KW.get(name, {}), **kw})


__all__ = [
    "DeepWalk",
    "Node2Vec",
    "MetaPath2Vec",
    "Edge2Vec",
    "FairWalk",
    "MODEL_INFO",
    "make_model",
]
