"""Lockstep driver: many runs of one algorithm, one numpy call per step.

On 2x2 matrices numpy's cost is the call, not the arithmetic, so runs
that each make their own calls spend their time in overhead. Here a run
is a generator holding its own control flow. It yields requests
`(server, payload)` and receives each request's result. A server is a
function of a list of payloads that returns their results in order,
computed in stacked numpy calls. Each stacked call acts on every payload
alone, so a payload's result has the bits it has when served alone, and
a run's bits do not depend on which runs share its batch.

`drive` keeps the pending request of every live run. Each round it serves
one server, in one call, and sends every served run its result: among
the servers of the highest `rank` (a function attribute, 0 when absent)
the one with the most pending requests. A server of lower rank is served
only when no run waits for one of higher rank, so the runs that reach it
wait there for the others: ranking the steps that close an iteration
below the inner ones keeps the runs of a batch in phase. A run that
returns, or raises a JmbeamError, leaves the batch. A server that raises
a JmbeamError is called again on each payload alone, and the error is
thrown into the runs whose payload raises it, where it ends the run
unless the run catches it.
"""

from .errors import JmbeamError

__all__ = ["drive", "run_one"]


def drive(runs):
    """Step the generators `runs` in lockstep until every one has ended.

    Returns a list with, per run, its return value or the JmbeamError
    that ended it. Any other exception propagates.
    """
    runs = list(runs)
    out = [None] * len(runs)
    pending = {}  # run index -> (server, payload)

    def step(i, value):
        try:
            if isinstance(value, JmbeamError):
                pending[i] = runs[i].throw(value)
            else:
                pending[i] = runs[i].send(value)
        except StopIteration as stop:
            out[i] = stop.value
        except JmbeamError as e:
            out[i] = e

    for i in range(len(runs)):
        step(i, None)
    while pending:
        groups = {}
        for i, (server, _) in pending.items():
            groups.setdefault(server, []).append(i)
        server, idx = max(
            groups.items(), key=lambda g: (getattr(g[0], "rank", 0), len(g[1]))
        )
        payloads = [pending.pop(i)[1] for i in idx]
        try:
            results = server(payloads)
        except JmbeamError:
            results = [_alone(server, p) for p in payloads]
        for i, result in zip(idx, results):
            step(i, result)
    return out


def _alone(server, payload):
    try:
        return server([payload])[0]
    except JmbeamError as e:
        return e


def run_one(run):
    """Drive a single generator: its return value, or its error raised."""
    (result,) = drive([run])
    if isinstance(result, JmbeamError):
        raise result
    return result

