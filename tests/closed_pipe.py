"""A stand-in for stdout whose reader goes away, shared by the CLI tests."""

import io


class ClosedPipe(io.StringIO):
    """Stdout piped into `head -n LINES`: keeps what it is given until LINES
    lines have arrived, then raises BrokenPipeError on every later write."""

    def __init__(self, lines: int) -> None:
        super().__init__()
        self.lines = lines
        self.seen = 0

    def write(self, text: str) -> int:
        if self.seen >= self.lines:
            raise BrokenPipeError("reader closed the pipe")
        self.seen += text.count("\n")
        return super().write(text)
