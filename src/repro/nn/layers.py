"""Layers of the numpy MLP: dense, ReLU, and (inverted) dropout.

Each layer implements ``forward``/``backward`` with explicitly cached
activations, and exposes its parameters and gradients so the optimizer can
update them in place.  The layers are deliberately minimal — just enough to
train the table-embedding classifier — but fully tested and reusable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.errors import ConfigurationError
from repro.nn.functional import relu, relu_grad

__all__ = ["Layer", "Dense", "ReLU", "Dropout"]


class Layer(ABC):
    """A differentiable transformation with optional parameters."""

    @abstractmethod
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output, caching whatever ``backward`` needs."""

    @abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate the gradient to the layer input; store parameter grads."""

    def parameters(self) -> list[np.ndarray]:
        """Trainable arrays (empty for parameter-free layers)."""
        return []

    def gradients(self) -> list[np.ndarray]:
        """Gradients aligned with :meth:`parameters`."""
        return []


class Dense(Layer):
    """Fully connected layer ``y = xW + b`` with He-style initialisation."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, l2: float = 0.0):
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("Dense layer sizes must be positive")
        scale = np.sqrt(2.0 / in_features)
        self.weights = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features, dtype=np.float64)
        self.l2 = float(l2)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._inputs: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.weights.shape[0]

    @property
    def out_features(self) -> int:
        return self.weights.shape[1]

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._inputs = inputs
        return inputs @ self.weights + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise ConfigurationError("backward called before a training forward pass")
        self.grad_weights = self._inputs.T @ grad_output
        if self.l2 > 0.0:
            self.grad_weights += self.l2 * self.weights
        self.grad_bias = grad_output.sum(axis=0)
        return grad_output @ self.weights.T

    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class ReLU(Layer):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._inputs = inputs
        return relu(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise ConfigurationError("backward called before a training forward pass")
        return grad_output * relu_grad(self._inputs)


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self._rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep_probability = 1.0 - self.rate
        self._mask = (self._rng.random(inputs.shape) < keep_probability) / keep_probability
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
