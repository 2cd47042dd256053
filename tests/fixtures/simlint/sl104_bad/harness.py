"""A use site naming a model that was never registered."""


def run_model(trace, model):
    return model


def smoke():
    return run_model([], "ghost")
