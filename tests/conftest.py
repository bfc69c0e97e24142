import tracemalloc

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def working_memory(fn) -> int:
    """Peak bytes fn() allocates beyond what it returns, after one warm-up call.

    The one tracemalloc measure every memory test shares.
    """
    fn()
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak - held

