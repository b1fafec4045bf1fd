"""The tests' one way to run an ``ApiServer`` in a background thread."""

import threading
from contextlib import contextmanager

from semdrought.service.httpd import serve

# serve_forever checks for shutdown this often; its 0.5 s default would add
# up to half a second to every teardown
POLL_INTERVAL_S = 0.01


@contextmanager
def running_server(pipeline):
    """Serve ``pipeline`` on a free localhost port for the ``with`` block and
    yield that port; on exit, stop the server and join its thread."""
    httpd = serve(pipeline, host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": POLL_INTERVAL_S}, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
