"""The one way a test boots a controller without ``launch``: on an
enclave of a named :class:`SgxPlatform`.

Freshness is on by default and its counter and pin slot live on the
platform, so a controller needs an enclave.  A platform's pin slot
belongs to one fleet: give every fleet a platform of its own, and pass
the same one again only to model a restart on surviving hardware.
"""

from repro.core.controller import PesosController
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary

#: The controller binary every test enclave runs.
BINARY = EnclaveBinary(name="pesos", content=b"test controller")


def boot(clients, platform: SgxPlatform | None = None, **kwargs) -> PesosController:
    """A controller over ``clients`` whose enclave runs on ``platform``
    (a fresh one when omitted); ``kwargs`` go to the constructor."""
    platform = platform or SgxPlatform("test-host")
    return PesosController(clients, enclave=platform.launch(BINARY), **kwargs)
