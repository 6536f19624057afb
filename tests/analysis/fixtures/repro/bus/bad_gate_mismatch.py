"""REP202 bad fixture: a gate guards an emit of a different topic."""


class Decoder:
    def __init__(self, sim):
        self.sim = sim

    def drop(self, frame: int) -> None:
        if "decode.done" in self.sim.topics:  # copy-pasted gate
            self.sim.emit("decode.drop", frame=frame)

    def finish(self, frame: int) -> None:
        if "decode.done" in self.sim.topics:
            self.sim.emit("decode.done", frame=frame)


class DecodeMonitor:
    def __init__(self, sim):
        self.frames = 0
        sim.on("decode.done", self._on_frame)
        sim.on("decode.drop", self._on_frame)

    def _on_frame(self, time, frame):
        self.frames = frame
