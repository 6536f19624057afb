"""REP202 bad fixture: a gate names a topic no emit publishes."""


class Decoder:
    def __init__(self, sim):
        self.sim = sim

    def finish(self, frame: int) -> None:
        if "decode.dnoe" in self.sim.topics:  # typo: never true
            self.sim.emit("decode.done", frame=frame)


class DecodeMonitor:
    def __init__(self, sim):
        self.frames = 0
        sim.on("decode.done", self._on_frame)

    def _on_frame(self, time, frame):
        self.frames = frame
