"""Inter-domain communication (IDC) over event channels.

Nemesis services export MIDDL-typed interfaces; invocations on
non-local interfaces are marshalled and carried over event channels.
Two properties matter for this reproduction:

* **IDC is impossible inside an activation handler** (§6.5) — which is
  the entire reason the MMEntry splits work between a notification
  handler and worker threads. The binding enforces this: a call from
  activation-handler context raises.
* **The server is an entry too**: requests land in the server domain
  via an event, are demultiplexed by a notification handler, and are
  executed by worker threads — so server-side service time is charged
  to the *server's* CPU account, client-side waiting to the client's.

The model is call/return with per-call marshalling costs; it does not
model MIDDL's type system (interfaces are plain Python callables
registered by name). It is the transport the architecture diagram's
"IDC" arrows denote, packaged so services (and tests) can measure
cross-domain call costs honestly.
"""

from collections import deque

from repro.kernel.threads import Compute, Wait


class IDCError(Exception):
    """Illegal use of a binding (e.g. from an activation handler)."""


class _Call:
    __slots__ = ("method", "args", "kwargs", "reply")

    def __init__(self, method, args, kwargs, reply):
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.reply = reply


class IDCService:
    """The server side: an entry (notification handler + one worker
    thread) that executes registered operations, in arrival order, on
    behalf of remote callers."""

    def __init__(self, domain, name):
        self.domain = domain
        self.sim = domain.sim
        self.name = name
        self._operations = {}
        self._queue = deque()
        self._work_event = None
        self.calls_served = 0
        self.channel = domain.create_channel(
            "idc-%s" % name, handler=self._notification)
        domain.add_thread(self._worker(), name="%s-idc-worker" % name)

    def export(self, method, fn):
        """Register an operation. ``fn`` may be a plain function (its
        result is returned directly) or a generator function of thread
        effects (for operations that block on IO)."""
        self._operations[method] = fn

    def _notification(self, call):
        self._queue.append(call)
        if self._work_event is not None and not self._work_event.triggered:
            self._work_event.trigger(None)

    def _worker(self):
        meter = self.domain.meter
        while True:
            while self._queue:
                call = self._queue.popleft()
                yield Compute(meter.model["thread_switch"], label="idc")
                fn = self._operations.get(call.method)
                if fn is None:
                    call.reply.fail(IDCError("no operation %r on %s"
                                             % (call.method, self.name)))
                    continue
                try:
                    result = fn(*call.args, **call.kwargs)
                    if hasattr(result, "send"):  # generator: may block
                        result = yield from result
                except Exception as exc:
                    call.reply.fail(exc)
                    continue
                self.calls_served += 1
                call.reply.trigger(result)
            self._work_event = self.sim.event("%s.idc-work" % self.name)
            yield Wait(self._work_event)

    def bind(self, client_domain):
        """Create a client binding for ``client_domain``."""
        return IDCBinding(self, client_domain)


class IDCBinding:
    """The client side of a binding.

    Use from a client thread as::

        result = yield from binding.call("method", arg1, arg2)
    """

    MARSHAL_NS = 900      # marshal + channel send (per call)
    UNMARSHAL_NS = 700    # unmarshal the reply

    def __init__(self, service, client_domain):
        self.service = service
        self.client_domain = client_domain
        self.calls_made = 0

    def call(self, method, *args, **kwargs):
        """One invocation; returns a generator of thread effects.

        The activation-handler check happens *here*, eagerly, so that a
        notification handler that even constructs a call is caught —
        matching the hard rule of §6.5.
        """
        if self.client_domain.in_activation_handler:
            raise IDCError(
                "IDC is not possible within an activation handler (§6.5); "
                "unblock a worker thread instead")
        return self._invoke(method, args, kwargs)

    def _invoke(self, method, args, kwargs):
        self.calls_made += 1
        reply = self.client_domain.sim.event("idc.reply")
        yield Compute(self.MARSHAL_NS, label="idc-marshal")
        self.service.channel.send(_Call(method, args, kwargs, reply))
        result = yield Wait(reply)
        yield Compute(self.UNMARSHAL_NS, label="idc-unmarshal")
        return result
