"""Horizontal and vertical convolutions from the MISS paper (Eq. 19 and 22).

The paper's kernels are deliberately tiny: a horizontal kernel
``g_m ∈ R^{1×m×1}`` has only ``m`` scalar weights and slides along the time
axis of the sequential-embedding tensor ``C ∈ R^{J×L×K}``; a vertical kernel
``ĝ_{m,n} ∈ R^{n×1×1}`` has ``n`` weights and slides along the field axis.
Because the kernels never exceed width 4, the convolution is implemented as a
sum of shifted slices, which keeps everything inside the autograd engine with
no im2col machinery.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["HorizontalConv", "VerticalConv"]


class HorizontalConv(Module):
    """Width-``m`` convolution along the time (L) axis of ``(B, J, L, K)``.

    Produces ``(B, J, L - m + 1, K)``.  Width 1 yields the paper's
    *point-wise* interest representations, width > 1 the *union-wise* ones.
    """

    def __init__(self, width: int, rng: np.random.Generator, activation: bool = True):
        super().__init__()
        if width < 1:
            raise ValueError(f"kernel width must be >= 1, got {width}")
        self.width = width
        self.activation = activation
        # Initialise near an averaging kernel so early interest representations
        # resemble local means of the behaviour embeddings.
        self.weight = Parameter(np.full(width, 1.0 / width) + rng.normal(0, 0.05, width))

    def forward(self, c: Tensor) -> Tensor:
        if c.ndim != 4:
            raise ValueError(f"expected (B, J, L, K) input, got shape {c.shape}")
        seq_len = c.shape[2]
        if seq_len < self.width:
            raise ValueError(
                f"sequence length {seq_len} shorter than kernel width {self.width}")
        return kernels.conv_window(c, self.weight, axis=2,
                                   relu=self.activation)


class VerticalConv(Module):
    """Height-``n`` convolution along the field (J) axis of ``(B, J, L', K)``.

    Produces ``(B, J - n + 1, L', K)``.  Height 1 keeps single-feature
    representations, height > 1 mixes adjacent sequential fields to model the
    paper's *intra-item* correlations.
    """

    def __init__(self, height: int, rng: np.random.Generator, activation: bool = True):
        super().__init__()
        if height < 1:
            raise ValueError(f"kernel height must be >= 1, got {height}")
        self.height = height
        self.activation = activation
        self.weight = Parameter(np.full(height, 1.0 / height) + rng.normal(0, 0.05, height))

    def forward(self, g: Tensor) -> Tensor:
        if g.ndim != 4:
            raise ValueError(f"expected (B, J, L', K) input, got shape {g.shape}")
        num_fields = g.shape[1]
        if num_fields < self.height:
            raise ValueError(
                f"field count {num_fields} smaller than kernel height {self.height}")
        return kernels.conv_window(g, self.weight, axis=1,
                                   relu=self.activation)
