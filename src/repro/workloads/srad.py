"""srad_v1: Rodinia speckle-reducing anisotropic diffusion
(Table II, classification: Image Output).

The ultrasound-despeckling stencil: per iteration, directional
derivatives, the instantaneous coefficient of variation q0, the diffusion
coefficient c = 1 / (1 + (q^2 - q0^2) / (q0^2 (1 + q0^2))) clamped to
[0, 1], and the divergence update.  Heavy on subtract/divide with
near-cancelling neighbours — exactly the operand profile that makes this
benchmark's WA bit-error ratios high in Fig. 8.  Runs with FP trapping.
"""

from __future__ import annotations

import numpy as np

from repro.workloads import inputs
from repro.workloads.base import FPContext, Workload, roll

_SCALES = {
    # (height, width, iterations, lambda)
    "tiny": (20, 20, 3, 0.5),
    "small": (32, 32, 4, 0.5),
    "paper": (48, 48, 6, 0.5),
}


class Srad(Workload):
    name = "srad_v1"
    classification = "Image Output"
    mix_name = "srad_v1"
    trap_nonfinite = True

    def _build_input(self) -> None:
        height, width, self.iterations, self.lam = _SCALES[self.scale]
        image = inputs.synthetic_image(height, width, self.seed, name="srad")
        # SRAD works on the exponential of the log-compressed image.
        self.image = np.exp(image / 255.0)
        self.input_descriptor = (
            f"{height} x {width}, {self.iterations} iter, lambda={self.lam}"
        )

    checkpointable = True

    def initial_state(self):
        return {"j": self.image.copy(), "iteration": 0}

    def advance(self, ctx: FPContext, state) -> bool:
        if state["iteration"] >= self.iterations:
            return False
        j = state["j"]
        # Mean and variance of the whole frame (q0 estimation).
        total = ctx.sum(j)
        n_pix = float(j.size)
        mean = ctx.div(total, n_pix)
        centred = ctx.sub(j, mean)
        var = ctx.div(ctx.sum(ctx.mul(centred, centred)), n_pix)
        q0_sq = ctx.div(var, ctx.mul(mean, mean))

        north = roll(j, 1, axis=0)
        south = roll(j, -1, axis=0)
        west = roll(j, 1, axis=1)
        east = roll(j, -1, axis=1)

        d_n = ctx.sub(north, j)
        d_s = ctx.sub(south, j)
        d_w = ctx.sub(west, j)
        d_e = ctx.sub(east, j)

        g_sq = ctx.div(
            ctx.add(ctx.add(ctx.mul(d_n, d_n), ctx.mul(d_s, d_s)),
                    ctx.add(ctx.mul(d_w, d_w), ctx.mul(d_e, d_e))),
            ctx.mul(j, j),
        )
        lap = ctx.div(ctx.add(ctx.add(d_n, d_s), ctx.add(d_w, d_e)), j)

        num = ctx.sub(ctx.mul(g_sq, 0.5),
                      ctx.mul(ctx.mul(lap, lap), 1.0 / 16.0))
        den_term = ctx.add(ctx.mul(lap, 0.25), 1.0)
        q_sq = ctx.div(num, ctx.mul(den_term, den_term))

        c_den = ctx.div(ctx.sub(q_sq, q0_sq),
                        ctx.mul(q0_sq, ctx.add(q0_sq, 1.0)))
        c = ctx.div(1.0, ctx.add(c_den, 1.0))
        c = np.clip(c, 0.0, 1.0)

        c_s = roll(c, -1, axis=0)
        c_e = roll(c, -1, axis=1)
        divergence = ctx.add(
            ctx.add(ctx.mul(c_s, d_s), ctx.mul(c, d_n)),
            ctx.add(ctx.mul(c_e, d_e), ctx.mul(c, d_w)),
        )
        state["j"] = ctx.add(j, ctx.mul(divergence, self.lam * 0.25))
        state["iteration"] += 1
        return state["iteration"] < self.iterations

    def finalize(self, ctx: FPContext, state) -> np.ndarray:
        return state["j"]

    def run(self, ctx: FPContext) -> np.ndarray:
        return self.run_from(ctx, self.initial_state())

    def outputs_equal(self, golden, observed) -> bool:
        return (golden.shape == observed.shape
                and bool(np.array_equal(golden, observed)))
