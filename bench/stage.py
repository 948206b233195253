"""Run one ``hybridpose`` CLI stage in this process, as the console script would.

Usage: python3 stage.py META_FILE TRACE(0|1) [hybridpose arguments...]

The stage imports ``hybridpose.cli`` and calls ``main`` with the given
arguments, like the installed ``hybridpose`` entry point.  It records the
CLOCK_MONOTONIC time at which the import finished, so the parent, which
read the same clock just before starting this process, can compute set-up
time.  With TRACE=1 it first wraps the public functions of each module at
the name its caller looks up (``hybridpose.cli.load_dataset``,
``hybridpose.tinynet.expect_decode``, ...).  Each wrapper records a span
(name, start, end, parent span, measured value); spans stay in memory and
are written to META_FILE, with the import time, when ``main`` returns.
With no arguments after TRACE the stage only imports, which measures
set-up alone.
"""

import functools
import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _text_bytes(args, kwargs, result):
    return len(result.encode())


def _rows(args, kwargs, result):
    return len(result)


def _written_bytes(args, kwargs, result):
    return len(args[1].encode())


def _loss_grad_flops(args, kwargs, result):
    """Multiply-add FLOPs of one batched loss+gradient, from the array shapes.

    Forward: trunk and head matmuls.  Backward: head weight gradients, the
    gradient into the hidden layer, trunk weight gradients and the gradient
    into every trunk layer but the first.  Plus the finest-level expectation
    decode.  Elementwise work is left out.
    """
    net, x = args[0], args[1]
    n = x.shape[0]
    trunk = sum(w.size for w in net.trunk_weights)
    trunk_dx = sum(w.size for w in net.trunk_weights[1:])
    heads = sum(w.size for per_angle in net.head_weights for w in per_angle)
    finest = sum(per_angle[0].shape[1] for per_angle in net.head_weights)
    return 2 * n * (trunk + heads) + 2 * n * (2 * heads + trunk + trunk_dx) + 2 * n * finest


class Tracer:
    """In-memory span recorder; ``wrap`` replaces a module or class attribute."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index, value]
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        fn = getattr(owner, attr)
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, _now

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    from hybridpose import cli, tinynet

    tracer.wrap(cli, "_write_atomic", "cli.write_atomic", _written_bytes)
    tracer.wrap(cli, "make_dataset", "synth.make_dataset")
    tracer.wrap(cli, "format_dataset", "synth.format_dataset", _text_bytes)
    tracer.wrap(cli, "load_dataset", "synth.load_dataset", _rows)
    tracer.wrap(cli, "format_predictions_csv", "data.format_predictions_csv", _text_bytes)
    tracer.wrap(cli, "checkpoint_text", "tinynet.checkpoint_text", _text_bytes)
    tracer.wrap(cli, "load_checkpoint", "tinynet.load_checkpoint")
    tracer.wrap(cli, "mae", "angles.mae")
    tracer.wrap(tinynet, "init_net", "tinynet.init_net")
    tracer.wrap(tinynet, "_batch_arrays", "tinynet.batch_arrays")
    tracer.wrap(tinynet, "_batch_loss_and_grads", "tinynet.loss_grad", _loss_grad_flops)
    tracer.wrap(tinynet, "adam_update", "tinynet.adam")
    tracer.wrap(tinynet, "_assert_finite_params", "tinynet.finite_guard")
    tracer.wrap(tinynet, "_evaluate", "tinynet.evaluate")
    tracer.wrap(tinynet.TinyNet, "_forward_batch", "tinynet.forward")
    tracer.wrap(tinynet.TinyNet, "predict", "tinynet.predict")
    tracer.wrap(tinynet.TinyNet, "predict_batch", "tinynet.predict_batch")
    tracer.wrap(tinynet, "expect_decode", "binning.expect_decode")
    tracer.wrap(tinynet, "softmax", "loss.softmax")


def main() -> int:
    meta_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from hybridpose import cli

    meta = {"import_done": _now()}
    tracer = Tracer()
    if trace:
        install(tracer)
    try:
        return cli.main(argv) if argv else 0
    finally:
        meta["names"], meta["spans"] = tracer.names, tracer.spans
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
