"""Host-time benchmark of the Baldur reproduction (see README.md)."""
