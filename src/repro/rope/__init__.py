"""Text-buffer substrate: the rope document representation."""

from .rope import Rope

__all__ = ["Rope"]
