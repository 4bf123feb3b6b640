"""Nemesis event channels.

§6.4: "Events are an extremely lightweight primitive provided by the
kernel — an event 'transmission' involves a few sanity checks followed
by the increment of a 64-bit value."

A channel has a monotonically increasing *sent* count and an *acked*
count maintained by the receiving domain; the difference is the number
of undelivered notifications. Real Nemesis conveys only the count, with
payload passed through shared memory; we attach the payload to the
channel directly (it models the shared fault record / revocation request
structures).

Sending marks the owning domain activatable; delivery happens when the
domain is next activated, which calls the channel's *notification
handler* inside the activation handler (IDC forbidden there — see
:mod:`repro.kernel.domain`).
"""

from collections import deque


class EventChannel:
    """One endpoint pair: senders increment, the owning domain drains."""

    def __init__(self, sim, name, meter=None):
        self.sim = sim
        self.name = name
        self.meter = meter
        self.sent = 0
        self.acked = 0
        self._payloads = deque()
        self.domain = None     # receiving domain
        self.handler = None    # notification handler (runs at activation)

    def attach(self, domain, handler=None):
        """Bind the receiving domain (and optionally its handler)."""
        self.domain = domain
        self.handler = handler

    @property
    def pending(self):
        """Number of events sent but not yet delivered."""
        return self.sent - self.acked

    def send(self, payload=None):
        """Transmit one event (increments the 64-bit count).

        Wakes the receiving domain; the payload will be handed to the
        notification handler at the domain's next activation.
        """
        if self.meter is not None:
            self.meter.charge("event_send")
        self.sent += 1
        self._payloads.append(payload)
        if self.domain is not None:
            self.domain._kick()

    def collect(self):
        """Drain pending payloads, advancing the acked count.

        Called by the receiving domain during activation. Returns the
        payloads in send order.
        """
        drained = list(self._payloads)
        self._payloads.clear()
        self.acked += len(drained)
        return drained
