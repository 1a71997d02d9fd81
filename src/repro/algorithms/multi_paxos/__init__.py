"""Multi-Paxos's wire family: the ballot rule's messages under ``Pax*``
names (:mod:`repro.algorithms.multi_paxos.messages`)."""
