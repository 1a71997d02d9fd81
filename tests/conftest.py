"""Suite-wide guards."""

import logging

import pytest


class _ErrorRecords(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    """Fail any test during which the ``asyncio`` logger records an ERROR.

    asyncio reports what no ``await`` sees — an exception escaping a
    connection callback, a task destroyed while still pending, a task
    exception never retrieved — on its logger and carries on, so such a
    defect would otherwise pass every assertion.  A destroyed-task record
    is written when the garbage collector frees the task, which can be
    during a test after the one that leaked it.
    """
    records = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(records)
    try:
        yield
    finally:
        logger.removeHandler(records)
    if records.records:
        pytest.fail(
            "asyncio logged errors:\n"
            + "\n".join(records.format(r) for r in records.records),
            pytrace=False,
        )
