import logging

import pytest


@pytest.fixture(autouse=True)
def _restore_package_log_level():
    """cli.main sets the irsbandit logger's level; no test hands it on to the next."""
    logger = logging.getLogger("irsbandit")
    level = logger.level
    yield
    logger.setLevel(level)
