from hypothesis import settings

# `pytest --hypothesis-profile fuzz` gives the CLI-contract property tests
# (`cli_contract.PROPERTY`) 2,000 new examples each on every run; without
# it they draw the same 150 examples every time
settings.register_profile("fuzz", max_examples=2000, derandomize=False, deadline=None)
