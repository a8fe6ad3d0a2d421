"""Process-wide execution-backend registry.

Replaces the frozen ``EXECUTE_BACKENDS`` tuple: backends are
*registered*, not enumerated in an ``if/elif``, so adding an execution
strategy (multi-GPU-sharded, quantized, Triton-style...) is a
:func:`register_backend` call instead of a core edit.  Every consumer
— :meth:`NMSpMM.execute`, the serving runtime, the ``serve-sim`` CLI,
``python -m repro backends`` and the kernel benchmark — enumerates
this registry, so a newly registered backend is immediately usable end
to end.

``"auto"`` is not a backend: it names the
:class:`~repro.backends.auto.AutoSelector`, which picks a registered
backend per request.  :func:`backend_names` therefore lists it first,
ahead of the registration-ordered backend names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.utils.validation import check_choice

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import Backend

__all__ = [
    "AUTO_BACKEND",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "backend_names",
    "backend_trace_vocabulary",
    "registry_generation",
]

#: The selector pseudo-backend accepted by every ``backend=`` argument.
AUTO_BACKEND = "auto"

#: Registration order is preserved (it is the display/bench order).
_REGISTRY: "dict[str, Backend]" = {}

#: Monotonic counter bumped by every (un)registration.  Consumers that
#: memoize decisions over the registry's contents — the
#: :class:`~repro.backends.auto.AutoSelector`'s per-``(handle,
#: m-bucket)`` memo — key on it, so a register/unregister invalidates
#: every cached decision without a callback protocol.
_GENERATION = 0


def registry_generation() -> int:
    """The current registry generation (changes on every
    register/unregister)."""
    return _GENERATION


def register_backend(backend: "Backend", *, replace: bool = False) -> "Backend":
    """Register ``backend`` under its ``name`` and return it.

    The backend must satisfy the :class:`~repro.backends.base.Backend`
    protocol (a ``name`` string plus ``supports``/``run`` callables).
    Re-registering a taken name raises unless ``replace=True``.
    """
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"backend {backend!r} must expose a nonempty string `name`"
        )
    if name == AUTO_BACKEND:
        raise ConfigurationError(
            f"{AUTO_BACKEND!r} is reserved for the auto-selector and "
            "cannot name a backend"
        )
    for member in ("supports", "run"):
        if not callable(getattr(backend, member, None)):
            raise ConfigurationError(
                f"backend {name!r} must define a callable `{member}(request)`"
            )
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"backend {name!r} is already registered "
            f"({_REGISTRY[name]!r}); pass replace=True to override"
        )
    global _GENERATION
    _GENERATION += 1
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> "Backend":
    """Remove and return a registered backend (mainly for tests)."""
    global _GENERATION
    removed = _REGISTRY.pop(check_choice("backend", name, _REGISTRY))
    _GENERATION += 1
    return removed


def get_backend(name: str) -> "Backend":
    """Look a backend up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; expected one of {backend_names()}"
        ) from None


def available_backends() -> "tuple[Backend, ...]":
    """Every registered backend, in registration order."""
    return tuple(_REGISTRY.values())


def backend_trace_vocabulary(name: str) -> tuple[str, ...]:
    """The trace-record names a backend's own accounting can emit
    (the ``trace_vocabulary`` capability) — empty for backends whose
    traces are purely plan-derived.  Trace consumers use this to
    interpret per-backend events (``dense_scatter`` speaks
    scatter/SGEMM) without hardcoding backend knowledge."""
    backend = get_backend(name)
    capabilities = getattr(backend, "capabilities", None)
    if capabilities is None:
        return ()
    return tuple(capabilities().get("trace_vocabulary", ()))


def backend_names(*, include_auto: bool = True) -> tuple[str, ...]:
    """Valid ``backend=`` arguments: ``"auto"`` plus the registered
    names."""
    names = tuple(_REGISTRY)
    return ((AUTO_BACKEND,) + names) if include_auto else names
