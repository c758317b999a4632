"""Distributed like/unlike voting over a Mainline-style Kademlia DHT.

Votes are announced into the DHT with two extra KRPC methods
(announce_vote / get_votes), counted one-per-IP in HyperLogLog sketches
that slide over a 24-hour window, replicated to the k nodes nearest the
hashed info-hash, and aggregated client-side with a per-register median
that filters spam replicas.

The modules are the API (``dhtvote.node``, ``dhtvote.udp``, ``dhtvote.sim``,
...): ``import dhtvote`` binds no names, so a node never loads the simulator.
"""
