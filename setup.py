from setuptools import Extension, setup

# The compiled kernels are an optimization, not a requirement: without a C
# compiler the build only warns, and the package runs on the pure-Python
# kernels.
setup(
    ext_modules=[
        Extension(
            "pellucas._kernels_c",
            ["src/pellucas/_kernels_c.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
