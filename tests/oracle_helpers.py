"""Deliberately naive reference implementations shared by the test suite.

Everything here trades speed for obviousness (explicit loops, float64) and
stays independent of the library's fast paths.  `grad_check` compares the
engine's analytic gradients with central finite differences.
"""

from dataclasses import dataclass, field

import numpy as np

from sbtrack import engine as eg


def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += float(a[i, t]) * float(b[t, j])
    return out


def pad_spatial(x, pad):
    if pad.amount == 0:
        return x
    mode = "wrap" if pad.kind == "circular" else "constant"
    return np.pad(x, ((0, 0), (pad.amount, pad.amount), (pad.amount, pad.amount)), mode=mode)


def conv2d_loops(x, w, b, stride, pad):
    c_out, c_in, k, _ = w.shape
    x = pad_spatial(x, pad)
    h, wid = x.shape[1:]
    ho = (h - k) // stride + 1
    wo = (wid - k) // stride + 1
    out = np.zeros((c_out, ho, wo), dtype=np.float64)
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(c_in):
                    for a in range(k):
                        for bb in range(k):
                            acc += float(x[ci, i * stride + a, j * stride + bb]) * float(w[co, ci, a, bb])
                out[co, i, j] = acc + (float(b[co]) if b is not None else 0.0)
    return out


def depthwise_loops(x, w, pad):
    c, k, _ = w.shape
    x = pad_spatial(x, pad)
    h, wid = x.shape[1:]
    ho, wo = h - k + 1, wid - k + 1
    out = np.zeros((c, ho, wo), dtype=np.float64)
    for ci in range(c):
        for i in range(ho):
            for j in range(wo):
                out[ci, i, j] = sum(
                    float(x[ci, i + a, j + b]) * float(w[ci, a, b]) for a in range(k) for b in range(k)
                )
    return out


def attention_loops(q, k, v, head_dim):
    """Double loop over query/key tokens; q [tq,d], k/v [tk,d]."""
    tq = q.shape[0]
    tk = k.shape[0]
    out = np.zeros((tq, q.shape[1]), dtype=np.float64)
    for i in range(tq):
        scores = np.array([float(q[i] @ k[j]) / np.sqrt(head_dim) for j in range(tk)])
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        for j in range(tk):
            out[i] += w[j] * v[j]
    return out


def dwcorr_loops(z, x):
    """Valid per-channel cross-correlation with nested loops."""
    c, hz, wz = z.shape
    _, hx, wx = x.shape
    ho, wo = hx - hz + 1, wx - wz + 1
    out = np.zeros((c, ho, wo), dtype=np.float64)
    for ci in range(c):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for a in range(hz):
                    for b in range(wz):
                        acc += float(z[ci, a, b]) * float(x[ci, i + a, j + b])
                out[ci, i, j] = acc
    return out


def randomize_weights(weights, rng, scale=0.4):
    """Re-draw every tensor of a block's weight dict at O(1) scale.

    Freshly initialized nets have near-zero attention scores, which makes
    some parameter gradients vanish relative to the loss and drowns central
    differences in float64 round-off.  Gradient checks therefore run on
    random instances with healthy magnitudes.
    """
    for name, t in weights.items():
        if name.endswith("gamma"):
            t.data[:] = 1.0 + 0.1 * rng.standard_normal(t.shape)
        elif name.endswith(("bias", "beta")):
            t.data[:] = 0.1 * rng.standard_normal(t.shape)
        else:
            t.data[:] = scale * rng.standard_normal(t.shape)


def bce_loops(p, y, clamp=1e-7):
    p = np.clip(np.asarray(p, dtype=np.float64).ravel(), clamp, 1 - clamp)
    y = np.asarray(y, dtype=np.float64).ravel()
    total = 0.0
    for pi, yi in zip(p, y):
        total += -(yi * np.log(pi) + (1 - yi) * np.log(1 - pi))
    return total / p.size


@dataclass
class GradCheckReport:
    """Per parameter: (name, worst relative error, entries probed)."""

    tol: float
    entries: list[tuple[str, float, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(err < self.tol for _, err, _ in self.entries)

    def summary(self) -> str:
        return "\n".join([f"grad check tol={self.tol:g} -> {'PASS' if self.ok else 'FAIL'}"]
                         + [f"  {name}: max rel err {err:.3e} over {n} entries"
                            for name, err, n in self.entries])


def grad_check(fn, params: dict, tol: float = 1e-4, step: float = 1e-5,
               max_entries: int | None = None, rng=None) -> GradCheckReport:
    """Compare analytic grads of `fn()` against central finite differences.

    `fn` rebuilds the scalar loss from the current parameter values each
    call.  Parameters should be float64 for headroom.  With `max_entries`
    set, a random subset of each parameter's entries is probed.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    eg.zero_grads(params.values())
    loss = fn()
    eg.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    report = GradCheckReport(tol=tol)
    for name, p in params.items():
        idxs = np.arange(p.size)
        if max_entries is not None and p.size > max_entries:
            idxs = rng.choice(p.size, size=max_entries, replace=False)
        worst = 0.0
        for i in idxs:
            at = np.unravel_index(i, p.shape)  # indexes p.data in place whatever its strides
            orig = p.data[at]
            with eg.no_grad():
                p.data[at] = orig + step
                f_plus = fn().item()
                p.data[at] = orig - step
                f_minus = fn().item()
            p.data[at] = orig
            numeric = (f_plus - f_minus) / (2 * step)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
        report.entries.append((name, worst, len(idxs)))
    return report
