from hypothesis import settings

# Property tests repeat exactly (fixed example sequence) and are not timed
# per example: solver calls vary in cost with the host's load.
settings.register_profile("glkit", deadline=None, derandomize=True)
settings.load_profile("glkit")
