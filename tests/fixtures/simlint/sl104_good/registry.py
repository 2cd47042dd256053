"""SL104 known-good twin of the bad fixture: the same registry."""


class BasePipeline:
    STREAMS = 1


MODELS = {
    "base": BasePipeline,
}
