"""Team formation systems F(q, G).

The paper's team-formation experiments (§4.3) use the method of Hao et
al. [23]: the user supplies a main member and the system grows a team
around them until every query term is covered.  :class:`CoverTeamFormer`
implements that contract, and :class:`CoverTeamDeltaSession` re-forms its
teams over perturbed overlays without rebuilding the network.
"""

from repro.team.base import Team, TeamFormationSystem
from repro.team.engine import CoverTeamDeltaSession, TeamDeltaSession
from repro.team.greedy import CoverTeamFormer

__all__ = [
    "CoverTeamDeltaSession",
    "CoverTeamFormer",
    "Team",
    "TeamDeltaSession",
    "TeamFormationSystem",
]
