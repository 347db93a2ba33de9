"""Per-dataset hyperparameter presets.

Each preset supplies the tuned graph threshold (delta) and GIN dimensions for
one of the five benchmark corpora.  `custom` carries no values; every field
must then be given explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Preset:
    name: str
    delta: float
    tau: int                 # input node-feature dim
    gin_layers: int
    mlp_hidden_layers: int
    mlp_hidden_dim: int
    tau_out: int             # output node-feature dim


PRESETS = {
    "20ng": Preset("20ng", delta=0.40, tau=2048, gin_layers=2, mlp_hidden_layers=1,
                   mlp_hidden_dim=200, tau_out=768),
    "bbc": Preset("bbc", delta=0.30, tau=256, gin_layers=3, mlp_hidden_layers=1,
                  mlp_hidden_dim=50, tau_out=512),
    "ss": Preset("ss", delta=0.20, tau=1024, gin_layers=2, mlp_hidden_layers=1,
                 mlp_hidden_dim=50, tau_out=256),
    "bio": Preset("bio", delta=0.05, tau=1024, gin_layers=2, mlp_hidden_layers=1,
                  mlp_hidden_dim=200, tau_out=256),
    "so": Preset("so", delta=0.10, tau=64, gin_layers=2, mlp_hidden_layers=1,
                 mlp_hidden_dim=300, tau_out=512),
}


def get_preset(name: str) -> Preset | None:
    """Look up a preset; `custom` returns None (caller supplies everything)."""
    if name == "custom":
        return None
    if name not in PRESETS:
        known = ", ".join(sorted(set(PRESETS) | {"custom"}))
        raise ConfigError(f"unknown preset '{name}' (choose from {known})")
    return PRESETS[name]

