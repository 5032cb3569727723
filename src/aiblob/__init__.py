"""aiblob: theme-driven montage pipeline over word-timestamped TV transcripts.

From transcripts and an episode title to a scored, segmented, ordered Edit
Decision List and a rendered video, with pluggable LLM/embedding providers
and deterministic offline test doubles.
"""
