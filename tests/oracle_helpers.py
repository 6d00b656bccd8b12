"""Deliberately naive reference implementations shared by the test suite.

Everything here trades speed for obviousness (explicit loops, float64) and
stays independent of the library's fast paths.
"""

import numpy as np


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


def pixcorr_loops(z, x):
    c, hz, wz = z.shape
    _, hx, wx = x.shape
    out = np.zeros((hz * wz, hx, wx), dtype=np.float64)
    for n in range(hz * wz):
        a, b = divmod(n, wz)
        for i in range(hx):
            for j in range(wx):
                out[n, i, j] = float(z[:, a, b] @ x[:, i, j])
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
