"""REP202 good fixture: every emit sits behind a gate on its own topic."""


class Decoder:
    def __init__(self, sim):
        self.sim = sim

    def finish(self, frame: int) -> None:
        if "decode.done" in self.sim.topics:
            self.sim.emit("decode.done", frame=frame)

    def drop(self, frame: int) -> None:
        topics = self.sim.topics
        if "decode.drop" not in topics and "decode.done" not in topics:
            return  # nobody listens: skip the bookkeeping too
        if "decode.drop" in topics:
            self.sim.emit("decode.drop", frame=frame)


class DecodeMonitor:
    def __init__(self, sim):
        self.frames = 0
        sim.on("decode.done", self._on_frame)
        sim.on("decode.drop", self._on_frame)

    def _on_frame(self, time, frame):
        self.frames = frame
