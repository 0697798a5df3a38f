"""The paper's primary contribution: the RelM white-box tuner (§4) and
the guiding white-box model Q used by GBO (§5.2)."""
from .relm import arbitrate, initialize, relm_recommend
from .qmodel import q_metrics

__all__ = ["arbitrate", "initialize", "relm_recommend", "q_metrics"]
