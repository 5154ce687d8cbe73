"""Multi-scale multi-task network.

Three parallel branches encode the (F, T) feature matrix at temporal
lengths T, T/s and T/s^2 (strided max-pooling down, transposed
convolution back up) and are fused by elementwise sum into a shared
T x 8 latent sequence.  A pool of 8 convolutional experts with four
softmax gates forms per-task features, and four linear heads emit the
dynamics (6-class), change-point, beat and downbeat logits.  The 8
experts run as one stacked conv pair: their first convs share the
latent input, and their second convs form one block-diagonal conv.

Branch internals: ``blocks_per_branch`` residual 3x3 conv blocks over
the (band, time) plane, a frequency-collapsing linear map down to
``channels``, one temporal self-attention block, then a linear map to
the 8 latent channels.  Branch fusion is a sum so the latent width
stays exactly 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .errors import ConfigError, ShapeError, TrainingError
from .objectives import N_DYNAMIC_CLASSES, TASKS

LATENT_DIM = 8
NUM_EXPERTS = 8
# Keeps expert e's second conv on its own 8 first-conv channels.
EXPERT_BLOCKS = np.kron(np.eye(NUM_EXPERTS), np.ones((LATENT_DIM, LATENT_DIM)))[:, :, None]


@dataclass
class ModelConfig:
    input_bins: int = 22
    scaling_factor: int = 5
    channels: int = 20
    blocks_per_branch: int = 2
    attention_dim: int = 8
    use_mmoe: bool = True

    def __post_init__(self):
        if self.scaling_factor < 1:
            raise ConfigError(f"scaling_factor must be >= 1, got {self.scaling_factor}")
        if min(self.channels, self.blocks_per_branch, self.attention_dim, self.input_bins) < 1:
            raise ConfigError("all widths must be >= 1")


class DynamicsModel:
    """Owns the parameter store, the batchnorm running statistics and the
    forward pass.  ``running_stats`` holds each batchnorm's running mean and
    variance under their state-dict names (``input_bn.running_mean``, ...)."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.params = ParameterStore()
        self.running_stats: dict[str, np.ndarray] = {}
        self._build(np.random.default_rng(seed))

    # -- construction ------------------------------------------------------

    def _weight_bias(self, rng, name, w_shape, out_axis=0):
        """Kaiming-uniform ``{name}.w`` and zero ``{name}.b``; axis ``out_axis``
        of the weight counts the outputs, the rest make its fan-in."""
        n_out = w_shape[out_axis]
        bound = np.sqrt(6.0 / (math.prod(w_shape) // n_out))
        self.params.add(f"{name}.w", rng.uniform(-bound, bound, size=w_shape).astype(np.float32))
        self.params.add(f"{name}.b", np.zeros(n_out, dtype=np.float32))

    def _bn(self, name, channels):
        self.params.add(f"{name}.gamma", np.ones(channels, dtype=np.float32))
        self.params.add(f"{name}.beta", np.zeros(channels, dtype=np.float32))
        self.running_stats[f"{name}.running_mean"] = np.zeros(channels, dtype=np.float32)
        self.running_stats[f"{name}.running_var"] = np.ones(channels, dtype=np.float32)

    def _build(self, rng):
        cfg = self.cfg
        self._bn("input_bn", cfg.input_bins)
        for b in range(3):
            prefix = f"branch{b}"
            cin = 1
            for blk in range(cfg.blocks_per_branch):
                self._weight_bias(rng, f"{prefix}.block{blk}.conv", (cfg.channels, cin, 3, 3))
                if cin != cfg.channels:
                    self._weight_bias(rng, f"{prefix}.block{blk}.proj", (cfg.channels, cin, 1, 1))
                self._bn(f"{prefix}.block{blk}.bn", cfg.channels)
                cin = cfg.channels
            self._weight_bias(rng, f"{prefix}.collapse", (cfg.channels, cfg.channels * cfg.input_bins))
            for w in ("wq", "wk", "wv"):
                self._weight_bias(rng, f"{prefix}.attn.{w}", (cfg.attention_dim, cfg.channels))
            self._weight_bias(rng, f"{prefix}.attn.wo", (cfg.channels, cfg.attention_dim))
            self.params.add(f"{prefix}.attn.ln.gamma", np.ones(cfg.channels, dtype=np.float32))
            self.params.add(f"{prefix}.attn.ln.beta", np.zeros(cfg.channels, dtype=np.float32))
            self._weight_bias(rng, f"{prefix}.out", (LATENT_DIM, cfg.channels))
            for stage in range(b):
                self._weight_bias(rng, f"{prefix}.up{stage}",  # (in, out, k)
                                  (LATENT_DIM, LATENT_DIM, cfg.scaling_factor), out_axis=1)
        if cfg.use_mmoe:
            for e in range(NUM_EXPERTS):
                self._weight_bias(rng, f"expert{e}.conv0", (LATENT_DIM, LATENT_DIM, 3))
                self._weight_bias(rng, f"expert{e}.conv1", (LATENT_DIM, LATENT_DIM, 3))
            for task in TASKS:
                self._weight_bias(rng, f"gate_{task}", (NUM_EXPERTS, LATENT_DIM))
        for task in TASKS:
            out = N_DYNAMIC_CLASSES if task == "dynamics" else 1
            self._weight_bias(rng, f"head_{task}", (out, LATENT_DIM))

    # -- forward -------------------------------------------------------------

    def _apply_linear(self, name, x):
        return ad.linear(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _apply_bn(self, name, x, training):
        return ad.batchnorm2d(x, self.params[f"{name}.gamma"], self.params[f"{name}.beta"],
                              self.running_stats[f"{name}.running_mean"],
                              self.running_stats[f"{name}.running_var"], training)

    def _block(self, name: str, h: Tensor, training: bool) -> Tensor:
        """One residual conv block: batchnorm of the relu of conv(h) plus
        the residual, ``h`` or its projection.  No backward reads the conv
        or sum output, and no local names them, so each dies as soon as the
        next op has read it, before the batchnorm runs."""
        p = self.params
        res = ad.conv2d(h, p[f"{name}.proj.w"], p[f"{name}.proj.b"]) if f"{name}.proj.w" in p else h
        return self._apply_bn(
            f"{name}.bn", ad.relu(ad.add(ad.conv2d(h, p[f"{name}.conv.w"], p[f"{name}.conv.b"]), res)), training)

    def _branch(self, x4d: Tensor, b: int, training: bool) -> Tensor:
        cfg = self.cfg
        s = cfg.scaling_factor
        prefix = f"branch{b}"
        h = ad.maxpool1d(x4d, s ** b)
        for blk in range(cfg.blocks_per_branch):
            h = self._block(f"{prefix}.block{blk}", h, training)
        bsz, c, f, t = h.shape
        h = ad.reshape(ad.transpose(h, (0, 3, 1, 2)), (bsz, t, c * f))
        h = self._apply_linear(f"{prefix}.collapse", h)
        q = self._apply_linear(f"{prefix}.attn.wq", h)
        k = self._apply_linear(f"{prefix}.attn.wk", h)
        v = self._apply_linear(f"{prefix}.attn.wv", h)
        att = self._apply_linear(f"{prefix}.attn.wo", ad.attention(q, k, v))
        h = ad.layernorm(ad.add(h, att), self.params[f"{prefix}.attn.ln.gamma"],
                         self.params[f"{prefix}.attn.ln.beta"])
        h = self._apply_linear(f"{prefix}.out", h)  # (B, t, 8)
        h = ad.transpose(h, (0, 2, 1))  # (B, 8, t)
        for stage in range(b):
            h = ad.conv_transpose1d(h, self.params[f"{prefix}.up{stage}.w"],
                                    self.params[f"{prefix}.up{stage}.b"])
        return h  # (B, 8, T_padded)

    def encode(self, features: np.ndarray, training: bool = False) -> Tensor:
        """(B, F, T) or (F, T) features -> shared latent (B, T, 8).

        The input is right-padded with zeros to a multiple of s^2 and
        the padding is cropped from the output.
        """
        cfg = self.cfg
        data = np.asarray(features, dtype=np.float32)
        if data.ndim == 2:
            data = data[None]
        bsz, f, t = data.shape
        if f != cfg.input_bins:
            raise ConfigError(f"encode: expected {cfg.input_bins} feature bins, got {f}")
        block = cfg.scaling_factor ** 2
        t_pad = -(-t // block) * block
        if t_pad != t:
            data = np.pad(data, ((0, 0), (0, 0), (0, t_pad - t)))
        x = Tensor(data)
        # per-band normalisation: treat the F bins as batchnorm channels
        x4d = ad.reshape(x, (bsz, f, 1, t_pad))
        x4d = self._apply_bn("input_bn", x4d, training)
        x4d = ad.transpose(x4d, (0, 2, 1, 3))  # (B, 1, F, T)
        fused = self._branch(x4d, 0, training)
        fused = ad.add(fused, self._branch(x4d, 1, training))
        fused = ad.add(fused, self._branch(x4d, 2, training))
        if t_pad != t:
            fused = ad.narrow(fused, 2, 0, t)
        return ad.transpose(fused, (0, 2, 1))

    def mmoe(self, latent: Tensor) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
        """Experts + per-task gates on the (B, T, 8) latent; returns task
        features and the (B, T, 8) softmax gate rows, both keyed by task."""
        if not self.cfg.use_mmoe:
            raise ConfigError("mmoe called on a model configured without MMoE")
        bsz, t, _ = latent.shape

        def stacked(name):
            return ad.concat([self.params[f"expert{e}.{name}"] for e in range(NUM_EXPERTS)], axis=0)

        h = ad.conv1d(ad.transpose(latent, (0, 2, 1)), stacked("conv0.w"), stacked("conv0.b"))
        w1 = ad.mul_const(ad.concat([stacked("conv1.w")] * NUM_EXPERTS, axis=1), EXPERT_BLOCKS)
        h = ad.conv1d(ad.relu(h), w1, stacked("conv1.b"))  # (B, 64, T), expert-major channels
        experts = ad.reshape(ad.transpose(h, (0, 2, 1)), (bsz, t, NUM_EXPERTS, LATENT_DIM))
        gates: dict[str, Tensor] = {}
        task_features: dict[str, Tensor] = {}
        for task in TASKS:
            gates[task] = ad.softmax(self._apply_linear(f"gate_{task}", latent))
            weights = ad.reshape(gates[task], (bsz, t, NUM_EXPERTS, 1))
            # the axis-2 sum adds the experts one after another, as the per-expert
            # chain of adds did, so outputs stay bit-identical; a matmul would not
            task_features[task] = ad.tsum(ad.mul(experts, weights), axis=2)
        return task_features, gates

    def forward(self, features, training: bool = False, return_gates: bool = False):
        """Full pass: features -> raw per-frame logits keyed by task, (B, T, 6)
        for dynamics and (B, T) for the rest (with the gates if asked)."""
        if training and not self.params.trainable:
            raise TrainingError("a frozen model cannot be trained")
        latent = self.encode(features, training=training)
        if self.cfg.use_mmoe:
            task_features, gates = self.mmoe(latent)
        else:
            task_features = {task: latent for task in TASKS}
            gates = {}
        logits = {}
        for task in TASKS:
            out = self._apply_linear(f"head_{task}", task_features[task])
            logits[task] = out if task == "dynamics" else ad.reshape(out, out.shape[:-1])
        return (logits, gates) if return_gates else logits

    # -- bookkeeping ----------------------------------------------------------

    def frozen(self) -> "DynamicsModel":
        """A copy for inference: the same parameter values and batchnorm
        statistics in tensors that need no gradient, so its forward builds
        no graph.  It cannot be trained; a frozen model returns itself."""
        if not self.params.trainable:
            return self
        twin = DynamicsModel.__new__(DynamicsModel)
        twin.cfg, twin.params = self.cfg, self.params.frozen()
        twin.running_stats = {name: arr.copy() for name, arr in self.running_stats.items()}
        return twin

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and batchnorm running statistic, by name."""
        state = {name: t.data.copy() for name, t in self.params.items()}
        return state | {name: arr.copy() for name, arr in self.running_stats.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Replace the whole state; every name and shape must match the model."""
        own = self.state_dict()
        wrong = [f"missing {name}" for name in sorted(own.keys() - state.keys())]
        wrong += [f"unexpected {name}" for name in sorted(state.keys() - own.keys())]
        wrong += [f"{name} has shape {np.shape(state[name])}, expected {arr.shape}"
                  for name, arr in sorted(own.items())
                  if name in state and np.shape(state[name]) != arr.shape]
        if wrong:
            raise ShapeError("state does not match the model: " + "; ".join(wrong))
        for name, t in self.params.items():
            t.data = np.array(state[name], dtype=t.data.dtype)
        self.running_stats = {name: np.array(state[name], dtype=np.float32) for name in self.running_stats}


def param_count(cfg: ModelConfig) -> int:
    """Exact number of trainable scalars for a configuration."""
    return DynamicsModel(cfg, seed=0).params.total_parameters()
