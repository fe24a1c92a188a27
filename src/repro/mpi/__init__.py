"""Simulated MPI in the style of ParaStation MPI (slides 28/29).

The layer gives each simulated MPI process a handle object
(:class:`MPIProcess`) that holds the rank's state, and communicators
(:class:`Communicator`) through which the rank sends and receives.
Their communication methods are *generators*: simulation processes
``yield from`` them, and communication time elapses on the simulated
clock through the fabric models underneath.

Feature set (what the DEEP software stack needs):

* communicators, groups, ``split``/``dup``, inter-communicators;
* blocking and nonblocking point-to-point with the **eager /
  rendezvous** protocol split of real MPI implementations;
* algorithmic collectives (binomial trees, recursive doubling, ring)
  whose cost emerges from the simulated network;
* ``MPI_Comm_spawn`` — the collective that starts Booster processes
  from the Cluster and returns the inter-communicator that *is*
  DEEP's Global MPI (slide 26);
* wildcard receives, message ordering, and value-carrying payloads so
  functional tests can verify actual data movement.
"""

from repro.mpi.datatypes import BYTE, DOUBLE, FLOAT, INT, Datatype
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status
from repro.mpi.request import Request
from repro.mpi.group import Group
from repro.mpi.ops import BAND, BOR, LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD, SUM, Op
from repro.mpi.communicator import Communicator, Intercommunicator
from repro.mpi.cartesian import CartComm, dims_create
from repro.mpi.world import MPIProcess, MPIWorld, Transport

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BAND",
    "BOR",
    "BYTE",
    "CartComm",
    "Communicator",
    "dims_create",
    "DOUBLE",
    "Datatype",
    "FLOAT",
    "Group",
    "INT",
    "Intercommunicator",
    "LAND",
    "LOR",
    "MAX",
    "MAXLOC",
    "MIN",
    "MINLOC",
    "MPIProcess",
    "MPIWorld",
    "Op",
    "PROD",
    "Request",
    "SUM",
    "Status",
    "Transport",
]
